package tcptrim_test

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"tcptrim/internal/experiment"
)

// goldenSlow names the runners that take 15 s or more each at seed 1;
// the golden test leaves them to `trimsim -run <id>` diffs.
var goldenSlow = map[string]bool{"fig8": true, "fig12": true, "table1": true}

// goldenSections splits results_all.txt (the output of `trimsim -all` at
// seed 1) into its per-runner sections: each starts with a "### <id>"
// line, and its body is a blank line followed by the runner's output.
func goldenSections(t *testing.T) (ids []string, sections map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("results_all.txt")
	if err != nil {
		t.Fatal(err)
	}
	chunks := strings.Split("\n"+string(raw), "\n### ")[1:]
	sections = map[string]string{}
	for i, chunk := range chunks {
		id, body, _ := strings.Cut(chunk, "\n")
		if i < len(chunks)-1 {
			body += "\n" // the newline the split consumed
		}
		ids = append(ids, id)
		sections[id] = body
	}
	return ids, sections
}

// TestGoldenResults pins the seed-1 output of every runner in the
// ground-truth file to its section there, byte for byte.
func TestGoldenResults(t *testing.T) {
	ids, sections := goldenSections(t)
	if len(ids) == 0 {
		t.Fatal("results_all.txt has no sections")
	}
	for _, id := range ids {
		if goldenSlow[id] {
			continue
		}
		want := sections[id]
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			var out bytes.Buffer
			out.WriteString("\n")
			if err := experiment.Run(id, experiment.Options{Seed: 1}, &out); err != nil {
				t.Fatal(err)
			}
			if got := out.String(); got != want {
				t.Errorf("output differs from results_all.txt at %s", firstDiff(want, got))
			}
		})
	}
}

// firstDiff renders the first differing line of want and got.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("line %d:\n want: %q\n  got: %q", i+1, w, g)
		}
	}
	return "(identical lines, differing trailing bytes)"
}
