package volume

import (
	"encoding/binary"
	"math"
)

func floatBits(f float32) uint32 { return math.Float32bits(f) }
func bitsFloat(b uint32) float32 { return math.Float32frombits(b) }

// littleEndian reports whether the host stores a float32 in the volume
// file's byte order, so a payload's bytes are a page's voxels as read.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1
