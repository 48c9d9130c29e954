// Command speccatlint runs the project's seven static-analysis layers:
//
//   - base: Go design-rule analyzers (internal/analysis) over package
//     patterns: nopanic, nowallclock, norand, noglobalstate, errwrap.
//   - fsm: protocol state-machine extraction (internal/analysis/fsmcheck)
//     over the same packages: exhaustiveness, determinism, dead
//     states/kinds, codec totality, and cross-validation of the extracted
//     tpc machines against internal/mc's transition relation.
//   - dur: durability-ordering dataflow (internal/analysis/durcheck):
//     write-ahead discipline over the protocol handlers —
//     //dur:requires sends dominated by the matching durable write,
//     //dur:volatile writes dominated by some durable write.
//   - port: runtime-boundary + state-confinement analysis
//     (internal/analysis/portcheck): //rt:engine
//     packages speak only the rt interfaces, handler state stays confined
//     to its event loop, and //dur:requires sends follow the in-memory
//     transition they advertise.
//   - comm: commutativity-derived lock modes (internal/analysis/commcheck):
//     the //comm:matrix compatibility table must match
//     the prover-discharged Safe theorems of its spec byte for byte, and
//     every //comm:op site must acquire exactly its class's derived mode
//     (comm-matrix, comm-overlock, comm-underlock, comm-extract).
//   - lock: two-phase-locking / cross-shard lock-order dataflow
//     (internal/analysis/lockcheck): every handler-reachable
//     locking.Manager call site must grow before it shrinks, release on every
//     return path, keep acquisitions out of SyncThen continuations and after
//     the wal decision record, and acquire across shards in canonical
//     ascending order (lock-twophase, lock-leak, lock-order, lock-hold,
//     lock-extract).
//   - spec: the spec/diagram linter (internal/core/speclint) over .sw
//     files: undeclared symbols, arity mismatches, duplicate axioms,
//     morphism totality pre-checks, prove/using consistency, diagram shape.
//
// Targets may be mixed freely; anything ending in .sw is linted as a
// specification file, everything else is treated as a Go package pattern
// ("./..." expands recursively, skipping testdata).
//
// Usage:
//
//	speccatlint [-list] [-werror] [-only layer] [-json] [-fsm dir] [-fsm-check dir] [target ...]
//
// By default every layer runs; the six Go layers are the shared list of
// internal/analysis/layers, run over one fact base built once from the
// loaded packages. -only base|fsm|dur|port|comm|lock|spec runs exactly one
// layer, so CI and bisection scripts can attribute findings to a layer
// without re-running the other six. With -fsm the extracted machines are rendered as markdown + DOT into dir
// (the generated docs/fsm/ artifacts); with -fsm-check the rendering is
// instead compared against dir and staleness is a failure (both belong
// to the fsm layer). With -json the findings of all layers are emitted
// as one JSON array of {file,line,col,severity,rule,layer,message}
// objects instead of text. With no targets it lints ./... from the
// current directory.
//
// Exit status is identical across all layers and layer combinations:
// 0 when every requested layer ran clean, 1 when any layer reported
// findings, 2 on usage or load errors (unknown -only layer, unreadable
// target, type-check failure). Spec-lint warnings are printed but do not
// affect the exit status unless -werror is given.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"speccat/internal/analysis"
	"speccat/internal/analysis/fsmcheck"
	"speccat/internal/analysis/layers"
	"speccat/internal/core/speclint"
)

// layerNames are the selectable analysis layers, in run order: the shared
// Go layers, then the spec linter.
var layerNames = func() []string { //lint:allow noglobalstate immutable lookup table
	var names []string
	for _, l := range layers.Go() {
		names = append(names, l.Name)
	}
	return append(names, "spec")
}()

// finding is the unified JSON shape of one diagnostic from any layer.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col,omitempty"`
	Severity string `json:"severity"`
	Rule     string `json:"rule"`
	Layer    string `json:"layer"`
	Message  string `json:"message"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("speccatlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the Go analysis layers and exit")
	werror := fs.Bool("werror", false, "treat spec-lint warnings as errors")
	only := fs.String("only", "", "run exactly one layer: "+strings.Join(layerNames, ", "))
	jsonOut := fs.Bool("json", false, "emit findings of all layers as a JSON array")
	fsmDir := fs.String("fsm", "", "write the extracted machine docs (markdown + DOT) into this directory")
	fsmCheck := fs.String("fsm-check", "", "fail if the generated machine docs in this directory are stale")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *only != "" && !slices.Contains(layerNames, *only) {
		fmt.Fprintf(stderr, "speccatlint: unknown layer %q for -only (want %s)\n", *only, strings.Join(layerNames, ", "))
		return 2
	}
	// enabled reports whether a layer should run: every layer, unless
	// -only selects exactly one.
	enabled := func(layer string) bool { return *only == "" || *only == layer }
	if *list {
		for _, l := range layers.Go() {
			fmt.Fprintf(stdout, "%-5s %s\n      %s\n", l.Name, l.Rules, l.Doc)
		}
		return 0
	}
	var findings []finding

	targets := fs.Args()
	if len(targets) == 0 {
		targets = []string{"./..."}
	}
	var specFiles, goPatterns []string
	for _, t := range targets {
		if strings.HasSuffix(t, ".sw") {
			specFiles = append(specFiles, t)
		} else {
			goPatterns = append(goPatterns, t)
		}
	}

	failed := false
	if enabled("spec") {
		for _, f := range specFiles {
			src, err := os.ReadFile(f)
			if err != nil {
				fmt.Fprintf(stderr, "speccatlint: %v\n", err)
				return 2
			}
			for _, d := range speclint.LintSource(f, string(src)) {
				findings = append(findings, finding{
					File: d.File, Line: d.Line,
					Severity: d.Severity.String(), Rule: d.Rule, Layer: "spec", Message: d.Message,
				})
				if !*jsonOut {
					fmt.Fprintln(stdout, d)
				}
				if d.Severity == speclint.SevError || *werror {
					failed = true
				}
			}
		}
	}

	var goLayers []layers.Layer
	for _, l := range layers.Go() {
		if enabled(l.Name) {
			goLayers = append(goLayers, l)
		}
	}
	if len(goPatterns) > 0 && len(goLayers) > 0 {
		loader, err := analysis.NewLoader(".")
		if err != nil {
			fmt.Fprintf(stderr, "speccatlint: %v\n", err)
			return 2
		}
		pkgs, err := loader.Load(goPatterns)
		if err != nil {
			fmt.Fprintf(stderr, "speccatlint: %v\n", err)
			return 2
		}
		facts := analysis.NewFacts(pkgs)
		var docs map[string]string
		for _, l := range goLayers {
			rep, diags := l.Check(facts)
			if fsmRep, ok := rep.(*fsmcheck.Report); ok {
				docs = fsmcheck.Docs(fsmRep, loader.ModuleRoot)
			}
			for _, d := range diags {
				findings = append(findings, finding{
					File: d.Pos.Filename, Line: d.Pos.Line, Col: d.Pos.Column,
					Severity: "error", Rule: d.Rule, Layer: l.Name, Message: d.Message,
				})
				if !*jsonOut {
					fmt.Fprintln(stdout, d)
				}
				failed = true
			}
		}
		if *fsmDir != "" && docs != nil {
			if err := writeDocs(*fsmDir, docs); err != nil {
				fmt.Fprintf(stderr, "speccatlint: %v\n", err)
				return 2
			}
		}
		if *fsmCheck != "" && docs != nil {
			for _, msg := range staleDocs(*fsmCheck, docs) {
				findings = append(findings, finding{Severity: "error", Rule: "fsm-docs", Layer: "fsm", Message: msg})
				if !*jsonOut {
					fmt.Fprintln(stdout, msg)
				}
				failed = true
			}
		}
	}

	if *jsonOut {
		if findings == nil {
			findings = []finding{}
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintf(stderr, "speccatlint: %v\n", err)
			return 2
		}
	}

	if failed {
		return 1
	}
	return 0
}

// writeDocs materializes the rendered machine docs into dir.
func writeDocs(dir string, docs map[string]string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("write fsm docs: %w", err)
	}
	for name, content := range docs {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			return fmt.Errorf("write fsm docs: %w", err)
		}
	}
	return nil
}

// staleDocs compares the rendered docs against the checked-in directory
// and describes every divergence: missing, out-of-date and orphaned files.
func staleDocs(dir string, docs map[string]string) []string {
	var out []string
	names := make([]string, 0, len(docs))
	for name := range docs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			out = append(out, fmt.Sprintf("%s: missing generated doc; run make fsm", path))
			continue
		}
		if string(data) != docs[name] {
			out = append(out, fmt.Sprintf("%s: stale generated doc; run make fsm", path))
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return out
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || (!strings.HasSuffix(name, ".md") && !strings.HasSuffix(name, ".dot")) {
			continue
		}
		if _, ok := docs[name]; !ok {
			out = append(out, fmt.Sprintf("%s: orphaned generated doc (machine no longer extracted); run make fsm and delete it", filepath.Join(dir, name)))
		}
	}
	return out
}
