package transfer

import (
	"fmt"
	"strings"

	"gvmr/internal/vec"
)

// mustFromPoints backs the presets; the control-point lists are static and
// valid by construction. Each preset is built once and shared: a Func is
// immutable in use, and the renderer's memos (skip grids, opacity-
// corrected tables) key on its pointer, so a fresh instance per request
// would rebuild them per request.
func mustFromPoints(points []Point) *Func {
	f, err := FromPoints(points, DefaultTableSize)
	if err != nil {
		panic(err)
	}
	return f
}

// Gray returns a neutral gray ramp with linearly increasing opacity; useful
// as a reference transfer function in tests.
func Gray() *Func { return gray }

var gray = mustFromPoints([]Point{
	{S: 0, C: vec.New4(0, 0, 0, 0)},
	{S: 1, C: vec.New4(1, 1, 1, 0.8)},
})

// SkullPreset emphasises the dense "bone" shell of the skull phantom: soft
// tissue is translucent amber, bone is bright and nearly opaque.
func SkullPreset() *Func { return skull }

var skull = mustFromPoints([]Point{
	{S: 0.00, C: vec.New4(0, 0, 0, 0)},
	{S: 0.12, C: vec.New4(0, 0, 0, 0)},
	{S: 0.25, C: vec.New4(0.55, 0.25, 0.12, 0.02)},
	{S: 0.45, C: vec.New4(0.85, 0.60, 0.35, 0.10)},
	{S: 0.65, C: vec.New4(0.95, 0.90, 0.80, 0.55)},
	{S: 1.00, C: vec.New4(1.00, 1.00, 0.98, 0.95)},
})

// SupernovaPreset maps the remnant shell to fiery emission colors with a
// translucent interior so filaments stay visible.
func SupernovaPreset() *Func { return supernova }

var supernova = mustFromPoints([]Point{
	{S: 0.00, C: vec.New4(0, 0, 0, 0)},
	{S: 0.08, C: vec.New4(0.02, 0.01, 0.10, 0.005)},
	{S: 0.30, C: vec.New4(0.25, 0.05, 0.35, 0.03)},
	{S: 0.55, C: vec.New4(0.90, 0.25, 0.10, 0.12)},
	{S: 0.75, C: vec.New4(1.00, 0.60, 0.10, 0.35)},
	{S: 1.00, C: vec.New4(1.00, 0.95, 0.70, 0.80)},
})

// PlumePreset renders the plume as a smoky gradient from cool blue at low
// density to warm white at the core.
func PlumePreset() *Func { return plume }

var plume = mustFromPoints([]Point{
	{S: 0.00, C: vec.New4(0, 0, 0, 0)},
	{S: 0.05, C: vec.New4(0.05, 0.08, 0.20, 0.01)},
	{S: 0.25, C: vec.New4(0.15, 0.30, 0.60, 0.05)},
	{S: 0.50, C: vec.New4(0.40, 0.60, 0.85, 0.15)},
	{S: 0.75, C: vec.New4(0.85, 0.85, 0.90, 0.40)},
	{S: 1.00, C: vec.New4(1.00, 0.98, 0.90, 0.85)},
})

// Preset returns the transfer function conventionally paired with the named
// dataset (skull, supernova, plume, or the explicit "gray" ramp — the
// default for registered file volumes); unknown names get the gray ramp
// with an error.
func Preset(dataset string) (*Func, error) {
	switch strings.ToLower(dataset) {
	case "skull":
		return SkullPreset(), nil
	case "supernova":
		return SupernovaPreset(), nil
	case "plume":
		return PlumePreset(), nil
	case "gray":
		return Gray(), nil
	default:
		return Gray(), fmt.Errorf("transfer: no preset for dataset %q", dataset)
	}
}
