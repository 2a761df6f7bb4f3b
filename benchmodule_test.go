// The benchmark under bench/ is a nested module, so the root module's
// `go build/vet/test ./...` never compiles it — yet it imports internal
// packages (render.CastPixel, core.PlanGrid, core.MapBricks, volume's
// staging API) and would break silently when their signatures move. This
// test puts it under tier-1: vet and test the module in place.
package gvmr_test

import (
	"os"
	"os/exec"
	"testing"
)

func TestBenchModuleVetAndTest(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and tests the nested bench module; skipped in -short")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("go tool not on PATH, bench module not checked: %v", err)
	}
	for _, args := range [][]string{{"vet", "."}, {"test", "."}} {
		cmd := exec.Command(goTool, args...)
		cmd.Dir = "bench"
		// Offline and self-contained: the module's only requirement is
		// this repository, through a replace directive.
		cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod", "GOPROXY=off", "GOWORK=off")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("bench: go %s .: %v\n%s", args[0], err, out)
		}
	}
}
