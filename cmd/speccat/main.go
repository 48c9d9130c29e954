// Command speccat processes specification files written in the project's
// Specware-like language: it parses, elaborates, composes (translate /
// morphism / diagram / colimit) and proves, printing each named value as
// it is produced.
//
// Usage:
//
//	speccat [-lenient] [-skip-proofs] [-lint] [-j workers] [-print name] file.sw...
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"speccat/internal/analysis"
	"speccat/internal/analysis/layers"
	"speccat/internal/core/provesched"
	"speccat/internal/core/speclang"
	"speccat/internal/core/speclint"
)

func main() {
	lenient := flag.Bool("lenient", false, "tolerate unknown symbols (auto-declare) and unbound identifiers")
	skipProofs := flag.Bool("skip-proofs", false, "record prove statements without running the prover")
	lint := flag.Bool("lint", false, "run the spec linter before elaboration; lint errors fail the file")
	jobs := flag.Int("j", 1, "discharge prove statements on this many workers (0 = GOMAXPROCS); results are bit-identical to -j 1")
	printName := flag.String("print", "", "print the named value after elaboration")
	quiet := flag.Bool("q", false, "suppress the per-statement summary")
	flag.Parse()

	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: speccat [-lenient] [-skip-proofs] [-lint] [-j workers] [-print name] file.sw...")
		os.Exit(2)
	}
	code := 0
	if *lint && lintGoLayers(os.Stderr, "./...") > 0 {
		code = 1
	}
	for _, path := range flag.Args() {
		if err := processFile(path, *lenient, *skipProofs, *lint, *jobs, *printName, *quiet); err != nil {
			fmt.Fprintf(os.Stderr, "speccat: %s: %v\n", path, err)
			code = 1
		}
	}
	os.Exit(code)
}

// lintGoLayers runs the shared list of Go analysis layers
// (internal/analysis/layers) over the package patterns of the enclosing
// module — -lint passes "./...", so it covers the spec layer plus every Go
// layer speccatlint runs — prints the findings to w and returns their
// count. Outside a Go module it is a no-op.
func lintGoLayers(w io.Writer, patterns ...string) int {
	loader, err := analysis.NewLoader(".")
	if err != nil || loader.ModulePath == "" {
		return 0
	}
	pkgs, err := loader.Load(patterns)
	if err != nil {
		fmt.Fprintf(w, "speccat: go lint: %v\n", err)
		return 1
	}
	facts := analysis.NewFacts(pkgs)
	n := 0
	for _, l := range layers.Go() {
		_, diags := l.Check(facts)
		for _, d := range diags {
			fmt.Fprintln(w, d)
		}
		n += len(diags)
	}
	return n
}

func processFile(path string, lenient, skipProofs, lint bool, jobs int, printName string, quiet bool) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if lint {
		diags := speclint.LintSource(path, string(src))
		for _, d := range diags {
			fmt.Fprintln(os.Stderr, d)
		}
		if speclint.HasErrors(diags) {
			return fmt.Errorf("spec lint failed")
		}
	}
	env, err := elaborate(string(src), lenient, skipProofs, jobs)
	if err != nil {
		return err
	}
	if !quiet {
		for _, name := range env.Names() {
			v, _ := env.Lookup(name)
			fmt.Printf("%-28s %s\n", name, describe(v))
		}
	}
	if printName != "" {
		v, ok := env.Lookup(printName)
		if !ok {
			return fmt.Errorf("no value named %s", printName)
		}
		fmt.Println(render(v))
	}
	return nil
}

// elaborate runs the pipeline. With jobs == 1 the elaborator discharges
// prove statements inline; otherwise proofs are skipped during elaboration
// and discharged afterwards on a worker pool (bit-identical results, see
// internal/core/provesched).
func elaborate(src string, lenient, skipProofs bool, jobs int) (*speclang.Env, error) {
	if skipProofs || jobs == 1 {
		return speclang.Run(src, speclang.Options{Lenient: lenient, SkipProofs: skipProofs})
	}
	env, err := speclang.Run(src, speclang.Options{Lenient: lenient, SkipProofs: true})
	if err != nil {
		return nil, err
	}
	obs, err := provesched.Extract(src)
	if err != nil {
		return nil, err
	}
	results := (&provesched.Scheduler{Workers: jobs}).Run(env, obs)
	if err := provesched.Bind(env, results); err != nil {
		return nil, err
	}
	return env, nil
}

func describe(v *speclang.Value) string {
	switch v.Kind {
	case speclang.KindSpec:
		return fmt.Sprintf("spec (%d sorts, %d ops, %d axioms, %d theorems)",
			len(v.Spec.Sig.Sorts), len(v.Spec.Sig.Ops), len(v.Spec.Axioms), len(v.Spec.Theorems))
	case speclang.KindColimit:
		return fmt.Sprintf("colimit (%d sorts, %d ops, %d axioms, %d theorems)",
			len(v.Spec.Sig.Sorts), len(v.Spec.Sig.Ops), len(v.Spec.Axioms), len(v.Spec.Theorems))
	case speclang.KindMorphism:
		return fmt.Sprintf("morphism %s -> %s", v.Morphism.Source.Name, v.Morphism.Target.Name)
	case speclang.KindDiagram:
		return fmt.Sprintf("diagram (%d nodes, %d arcs)", len(v.Diagram.Nodes()), len(v.Diagram.Arcs()))
	case speclang.KindProof:
		return fmt.Sprintf("proved (%d steps, %d clauses, %v)",
			v.Proof.Stats.ProofLength, v.Proof.Stats.Generated, v.Proof.Stats.Elapsed)
	default:
		return "text"
	}
}

func render(v *speclang.Value) string {
	switch v.Kind {
	case speclang.KindSpec, speclang.KindColimit:
		return v.Spec.String()
	case speclang.KindMorphism:
		return v.Morphism.String()
	case speclang.KindProof:
		out := ""
		for _, s := range v.Proof.Proof {
			out += s.String() + "\n"
		}
		return out
	default:
		return v.Text
	}
}
