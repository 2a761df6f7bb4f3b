package experiments

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"gvmr/internal/core"
	"gvmr/internal/volume"
	"gvmr/internal/volume/dataset"
)

// tiny returns a scale small enough for unit tests.
func tiny() Scale {
	return Scale{
		Name:      "tiny",
		ImageSize: 48,
		Edges:     []int{16, 32},
		GPUCounts: []int{1, 2, 4},
		Fig2Edge:  16,
		Sec63Edge: 32,

		BaselineRanks:        8,
		BaselineRanksPerNode: 2,
		BaselineEdge:         32,
		BaselineGPUEdge:      32,
		BaselineGPUs:         4,

		AblationEdge: 24,
	}
}

func TestScalesWellFormed(t *testing.T) {
	for _, sc := range []Scale{Paper(), Quick(), tiny()} {
		if sc.ImageSize <= 0 || len(sc.Edges) == 0 || len(sc.GPUCounts) == 0 {
			t.Errorf("scale %q malformed: %+v", sc.Name, sc)
		}
	}
	p := Paper()
	if p.ImageSize != 512 || p.Edges[len(p.Edges)-1] != 1024 || p.GPUCounts[len(p.GPUCounts)-1] != 32 {
		t.Errorf("paper scale does not match the paper's grid: %+v", p)
	}
}

func TestSweepSkipsOversizedSingleGPU(t *testing.T) {
	// A volume >= VRAM must be skipped at 1 GPU (the paper's 1024³ series
	// starts at 2). Exercised indirectly with the rule itself: 16³ and
	// 32³ fit easily, so every configuration of tiny() must be present.
	rows, err := Sweep(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*3 {
		t.Fatalf("sweep rows = %d, want 6", len(rows))
	}
}

func TestSweepRowsOrderedAndPopulated(t *testing.T) {
	rows, err := Sweep(tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Runtime <= 0 || r.FPS <= 0 || r.Bricks < r.GPUs {
			t.Errorf("row %+v not populated", r)
		}
	}
	// Tables build without panicking and carry all rows.
	f3 := Fig3(rows)
	if len(f3.Rows) != len(rows) {
		t.Errorf("fig3 rows = %d", len(f3.Rows))
	}
	fps, vps := Fig4(rows)
	if len(fps.Rows) != len(rows) || len(vps.Rows) != len(rows) {
		t.Error("fig4 rows missing")
	}
	eff := Efficiency(rows)
	if len(eff.Rows) != len(rows) {
		t.Error("efficiency rows missing")
	}
	// Efficiency of the base configuration is exactly 1.
	for _, row := range eff.Rows {
		if row[1] == "1" && row[2] != "1.00" {
			t.Errorf("base efficiency = %s", row[2])
		}
	}
}

func TestFig2WritesPNGs(t *testing.T) {
	dir := t.TempDir()
	tab, err := Fig2(tiny(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("fig2 rows = %d", len(tab.Rows))
	}
	for _, name := range dataset.Names() {
		p := filepath.Join(dir, "fig2_"+name+".png")
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("missing %s: %v", p, err)
		}
	}
}

func TestSec63(t *testing.T) {
	rows, tab, err := Sec63(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].GPUs != 8 || rows[1].GPUs != 16 {
		t.Fatalf("sec63 rows = %+v", rows)
	}
	for _, r := range rows {
		if r.MapCompute <= 0 || r.MapComm <= 0 {
			t.Errorf("sec63 row %+v empty", r)
		}
	}
	if !strings.Contains(tab.String(), "comm/comp") {
		t.Error("sec63 table missing ratio column")
	}
}

func TestMicroTableHolds(t *testing.T) {
	tab, err := Micro()
	if err != nil {
		t.Fatal(err)
	}
	out := tab.String()
	if strings.Contains(out, "false") {
		t.Errorf("a §3 micro-cost claim does not hold:\n%s", out)
	}
}

func TestBaselineCmp(t *testing.T) {
	tab, err := BaselineCmp(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("baseline rows = %d", len(tab.Rows))
	}
}

// TestClaimsReportShape runs the quick-scale headline claims and fails
// on any claim that does not hold unless DESIGN.md §6's deviation list
// names it with its measured cause ("- `claim`: cause").
func TestClaimsReportShape(t *testing.T) {
	rows, err := Sweep(Quick())
	if err != nil {
		t.Fatal(err)
	}
	tab := ClaimsReport(Quick(), rows)
	if len(tab.Rows) == 0 {
		t.Fatal("claims report empty")
	}
	deviations := designDeviations(t)
	for _, row := range tab.Rows {
		claim, holds := row[0], row[len(row)-1]
		if holds != "true" && deviations[claim] == "" {
			t.Errorf("claim %q does not hold (%v) and DESIGN.md §6 lists no measured cause for it", claim, row)
		}
	}
}

// designDeviations reads DESIGN.md §6's deviation list: claim → cause.
func designDeviations(t *testing.T) map[string]string {
	t.Helper()
	doc, err := os.ReadFile(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, sec, ok := strings.Cut(string(doc), "\n## §6 ")
	if !ok {
		t.Fatal("DESIGN.md has no §6")
	}
	sec, _, _ = strings.Cut(sec, "\n## ")
	out := map[string]string{}
	for _, line := range strings.Split(sec, "\n") {
		entry, ok := strings.CutPrefix(line, "- `")
		if !ok {
			continue
		}
		if claim, cause, ok := strings.Cut(entry, "`: "); ok {
			out[claim] = strings.TrimSpace(cause)
		}
	}
	return out
}

func TestInOutOfCore(t *testing.T) {
	tab, err := InOutOfCore(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestAblationsRun(t *testing.T) {
	tab, err := Ablations(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 8 {
		t.Fatalf("ablation rows = %d", len(tab.Rows))
	}
	if last := tab.Rows[len(tab.Rows)-1][0]; last != "no empty-space skipping" {
		t.Errorf("last ablation row = %q, want the skip-off A/B", last)
	}
}

func TestZeroCopySlower(t *testing.T) {
	tab := ZeroCopy(tiny())
	if len(tab.Rows) != 2 {
		t.Fatal("zero-copy table malformed")
	}
	if !strings.Contains(tab.Rows[1][2], "x") {
		t.Errorf("no slowdown factor: %v", tab.Rows[1])
	}
	// The emission-only slowdown must reflect the ZeroCopyPenalty.
	if tab.Rows[1][2] == "1.00x" {
		t.Errorf("0-copy emission should be much slower: %v", tab.Rows[1])
	}
}

func TestRenderConfigRejectsUnknownDataset(t *testing.T) {
	if _, err := RenderConfig("nope", volume.Cube(8), 1, 16, nil); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestRenderConfigMutate(t *testing.T) {
	res, err := RenderConfig(dataset.Skull, volume.Cube(16), 2, 24, func(o *core.Options) {
		o.BricksPerGPU = 2
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Grid.NumBricks() != 4 {
		t.Errorf("mutate ignored: %d bricks", res.Grid.NumBricks())
	}
}

// TestSweepParallelMatchesSerial: fanning sweep cells out across the
// scheduler pool must produce row-for-row identical tables.
func TestSweepParallelMatchesSerial(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	serial, err := Sweep(tiny())
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(4) // a real pool even on one core
	parallel, err := Sweep(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("sweep rows differ between serial and parallel execution:\nserial   %+v\nparallel %+v",
			serial, parallel)
	}
}
