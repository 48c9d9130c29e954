package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestLintRunsEveryGoLayer: speccat -lint runs the shared Go layer list,
// portcheck included — over the portbad fixture it reports the rt-*
// findings seeded there.
func TestLintRunsEveryGoLayer(t *testing.T) {
	dir, err := filepath.Abs(filepath.Join("..", "..", "internal", "analysis", "portcheck", "testdata", "src", "portbad"))
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	n := lintGoLayers(&out, dir)
	for _, rule := range []string{"rt-boundary", "rt-confine", "rt-sendorder", "rt-extract"} {
		if !strings.Contains(out.String(), rule) {
			t.Errorf("speccat -lint output missing %s findings:\n%s", rule, out.String())
		}
	}
	if got := strings.Count(out.String(), "\n"); n != got {
		t.Errorf("lintGoLayers returned %d, printed %d findings", n, got)
	}
}
