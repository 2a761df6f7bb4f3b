// Command volgen writes a built-in synthetic dataset to a .gvmr volume
// file, for exercising the out-of-core (disk-streamed) rendering path.
// The file is bricked for the demand pager; bricks holding a single
// value are recorded in its directory and take no space on disk.
//
// Usage:
//
//	volgen -dataset supernova -size 256 -o supernova256.gvmr
//	volgen -dataset skull -size 512 -brick 64 -compress -o skull512.gvmr
package main

import (
	"flag"
	"fmt"
	"log"

	"gvmr"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("volgen: ")
	var (
		ds       = flag.String("dataset", "skull", "dataset (skull|supernova|plume)")
		size     = flag.Int("size", 128, "cube edge (plume becomes (n/2)x(n/2)x2n)")
		out      = flag.String("o", "", "output .gvmr path (required)")
		brick    = flag.Int("brick", 0, "brick edge in voxels (0 = default 32)")
		compress = flag.Bool("compress", false, "compress each brick payload (run-length code of its float32 bit patterns)")
	)
	flag.Parse()
	if *out == "" {
		log.Fatal("missing -o output path")
	}
	src, err := gvmr.Dataset(*ds, *size)
	if err != nil {
		log.Fatal(err)
	}
	err = gvmr.WriteVolumeFileOpts(*out, src, gvmr.VolumeFileOptions{
		BrickEdge: *brick,
		Compress:  *compress,
	})
	if err != nil {
		log.Fatal(err)
	}
	d := src.Dims()
	fmt.Printf("wrote %s: %v, %.1f MiB dense\n", *out, d, float64(d.Bytes())/(1<<20))
}
