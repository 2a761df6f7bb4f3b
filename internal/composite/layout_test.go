package composite

import (
	"testing"
	"unsafe"
)

// Satellite guard: the wire layout the codecs assume — field order
// Key,R,G,B,A,Depth at 4-byte strides, no padding — is the struct's
// actual memory layout. The compile-time size check lives in layout.go;
// this pins the offsets.
func TestFragmentWireLayout(t *testing.T) {
	var f Fragment
	if got := unsafe.Sizeof(f); got != FragmentBytes {
		t.Fatalf("unsafe.Sizeof(Fragment{}) = %d, want %d", got, FragmentBytes)
	}
	offsets := map[string]uintptr{
		"Key":   unsafe.Offsetof(f.Key),
		"R":     unsafe.Offsetof(f.R),
		"G":     unsafe.Offsetof(f.G),
		"B":     unsafe.Offsetof(f.B),
		"A":     unsafe.Offsetof(f.A),
		"Depth": unsafe.Offsetof(f.Depth),
	}
	want := map[string]uintptr{"Key": 0, "R": 4, "G": 8, "B": 12, "A": 16, "Depth": 20}
	for name, off := range want {
		if offsets[name] != off {
			t.Errorf("Fragment.%s at offset %d, wire layout wants %d", name, offsets[name], off)
		}
	}
}
