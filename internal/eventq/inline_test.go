package eventq

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"testing"
)

// TestScheduleFunctionsInline pins that the scheduling entry points stay
// within the compiler's inlining budget, so every caller reaches put one
// call deep. Schedule sits one unit under the budget with At inlined into
// it: a change that makes At or put one call deeper pushes it over,
// and no other test would notice. The check reads the compiler's own
// -m report of this package.
func TestScheduleFunctionsInline(t *testing.T) {
	goBin := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(goBin); err != nil {
		t.Skipf("no go toolchain at %s: %v", goBin, err)
	}
	out, err := exec.Command(goBin, "build", "-gcflags=-m", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	for _, fn := range []string{"Schedule", "At", "Call", "CallAt", "InjectAt"} {
		re := regexp.MustCompile(`(?m)can inline \(\*Engine\)\.` + fn + `( |$)`)
		if !re.Match(out) {
			t.Errorf("(*Engine).%s no longer inlines (go build -gcflags=-m=2 ./internal/eventq/ shows its cost)", fn)
		}
	}
}
