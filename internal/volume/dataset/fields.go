package dataset

import (
	"fmt"
	"strings"

	"gvmr/internal/volume"
)

// Names of the built-in datasets, matching the paper's evaluation set.
const (
	Skull     = "skull"
	Supernova = "supernova"
	Plume     = "plume"
)

// Names lists the renderable dataset names: the built-ins plus every
// registered file volume (see RegisterVolumeFile).
func Names() []string { return append([]string{Skull, Supernova, Plume}, Registered()...) }

// New returns a streaming Source for the named dataset at the given dims.
// Values are in [0,1]. Built-ins get an analytic source whose tag embeds
// name and dims, so it is safe to share through the volume staging cache;
// registered file volumes get their shared (paged for v2) file source,
// whose dims are fixed by the file.
func New(name string, d volume.Dims) (volume.Source, error) {
	if e := lookup(name); e != nil {
		if nd := e.src.Dims(); nd != d {
			return nil, fmt.Errorf("dataset: volume %q has dims %v, not %v", name, nd, d)
		}
		return e.src, nil
	}
	var rows volume.RowFiller
	switch strings.ToLower(name) {
	case Skull:
		rows = SkullRows
	case Supernova:
		rows = SupernovaRows
	case Plume:
		rows = PlumeRows
	default:
		return nil, fmt.Errorf("dataset: unknown dataset %q (have %v)", name, Names())
	}
	return volume.NewFuncSourceRows(fmt.Sprintf("%s-%s", name, d), d, rows), nil
}

// PaperDims returns the resolution the paper stores the named dataset at,
// scaled by the cube edge n: Skull and Supernova are n³; Plume is
// (n/2)×(n/2)×2n capped to the paper's 512×512×2048 shape ratio.
// Registered file volumes have fixed on-disk dims, so n is ignored.
func PaperDims(name string, n int) volume.Dims {
	if d, ok := NativeDims(name); ok {
		return d
	}
	if strings.ToLower(name) == Plume {
		return volume.Dims{X: n / 2, Y: n / 2, Z: n * 2}
	}
	return volume.Cube(n)
}

// ellipsoid describes one component of the skull phantom.
type ellipsoid struct {
	cx, cy, cz float64 // center in [-1,1]³
	ax, ay, az float64 // semi-axes
	phi        float64 // rotation about z, radians
	val        float64 // additive intensity
}

// skullEllipsoids is a 3D Shepp-Logan-style head phantom: an outer "bone"
// shell, inner tissue, ventricles and small dense features, giving the
// classic skull-like opacity structure (dense shell, mostly transparent
// interior with small features).
var skullEllipsoids = []ellipsoid{
	{0, 0, 0, 0.69, 0.92, 0.81, 0, 0.8},           // outer skull
	{0, -0.0184, 0, 0.6624, 0.874, 0.78, 0, -0.6}, // subtract: inner cavity
	{0.22, 0, 0, 0.11, 0.31, 0.22, -0.314, 0.2},   // right feature
	{-0.22, 0, 0, 0.16, 0.41, 0.28, 0.314, 0.2},   // left feature
	{0, 0.35, -0.15, 0.21, 0.25, 0.41, 0, 0.3},    // frontal mass
	{0, 0.1, 0.25, 0.046, 0.046, 0.05, 0, 0.4},    // small dense node
	{0, -0.1, 0.25, 0.046, 0.046, 0.05, 0, 0.4},   // small dense node
	{-0.08, -0.605, 0, 0.046, 0.023, 0.05, 0, 0.35},
	{0, -0.605, 0, 0.023, 0.023, 0.02, 0, 0.35},
	{0.06, -0.605, 0, 0.023, 0.046, 0.02, 0, 0.35},
}

func sq(v float64) float64 { return v * v }
