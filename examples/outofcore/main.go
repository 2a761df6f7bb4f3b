// Out-of-core rendering: the volume lives in a bricked (v2) file on the
// simulated cluster's disks and is streamed through the GPUs brick by
// brick — more bricks than GPUs, each disk load charged at the paper's
// ≈20 ms/64³ rate, overlapped with kernel execution by the MapReduce
// library's prefetching loader. The demand pager stages individual file
// bricks through the bounded staging cache, so the render never holds
// the dense volume in memory, and the file's per-brick min/max lets
// staging skip transfer-function-empty bricks without touching disk.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"gvmr"
)

// tinyOr returns small instead of normal when GVMR_EXAMPLE_TINY is set:
// the repo's examples smoke test runs every example at toy dimensions so
// the example code paths stay exercised by tier-1 CI.
func tinyOr(normal, small int) int {
	if os.Getenv("GVMR_EXAMPLE_TINY") != "" {
		return small
	}
	return normal
}

func main() {
	log.SetFlags(0)

	// Generate a supernova volume file (what cmd/volgen does).
	dir, err := os.MkdirTemp("", "gvmr-ooc")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "supernova.gvmr")
	src, err := gvmr.Dataset("supernova", tinyOr(256, 32))
	if err != nil {
		log.Fatal(err)
	}
	if err := gvmr.WriteVolumeFileOpts(path, src, gvmr.VolumeFileOptions{Compress: true}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%v, %.0f MiB dense)\n", path, src.Dims(),
		float64(src.Dims().Bytes())/(1<<20))

	// Open it as a demand-paged source and render out-of-core on 2 GPUs
	// with 4 bricks per GPU: 8 render bricks cycle through 2 devices,
	// paging file bricks in and out of the staging cache as they go.
	file, err := gvmr.OpenVolumeFile(path)
	if err != nil {
		log.Fatal(err)
	}
	defer file.Close()

	tf, err := gvmr.Preset("supernova")
	if err != nil {
		log.Fatal(err)
	}
	cl, err := gvmr.NewCluster(2)
	if err != nil {
		log.Fatal(err)
	}
	res, err := gvmr.Render(cl, gvmr.Options{
		Source:       file,
		TF:           tf,
		Width:        tinyOr(512, 48),
		Height:       tinyOr(512, 48),
		FromDisk:     true, // charge disk I/O per brick
		BricksPerGPU: 4,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := res.Image.WritePNG("supernova_ooc.png"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("out-of-core frame: %v over %d bricks on %d GPUs (%.0f MVPS)\n",
		res.Runtime, res.Grid.NumBricks(), res.GPUs, res.VPSMillions)
	fmt.Printf("partition+io share (disk loads + transfers): %v of %v mean per GPU\n",
		res.Stats.MeanStage.PartitionIO, res.Stats.MeanStage.Total())
	s := file.Stats()
	fmt.Printf("pager: %d file bricks, %d reads (%.1f MiB), %d reloads, %d constant fills, %d skipped by min/max\n",
		s.Bricks, s.BrickReads, float64(s.BytesRead)/(1<<20), s.Reloads, s.ConstantFills, s.SkippedBricks)
	fmt.Println("wrote supernova_ooc.png")
}
