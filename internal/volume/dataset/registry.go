package dataset

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"gvmr/internal/volume"
)

// This file is the registry of file-backed volumes: datasets that are not
// analytic fields but GVMR volume files on disk (gvmrd -volume, tests,
// the out-of-core example). Registering a file makes its name a
// first-class dataset — Names/New/PaperDims and every layer above them
// (server request validation, dist job specs) treat it exactly like a
// built-in. The file is opened once and its demand pager shared by every
// render, so concurrent requests share one page cache and one set of
// pager counters.

// fileEntry is one registered file-backed dataset.
type fileEntry struct {
	path string
	tf   string // transfer-function preset name (see transfer.Preset)
	src  *volume.PagedSource
}

var (
	regMu      sync.RWMutex
	registered = map[string]*fileEntry{}
)

// builtin reports whether name (already lowercased) is a built-in dataset.
func builtin(name string) bool {
	return name == Skull || name == Supernova || name == Plume
}

// RegisterVolumeFile opens the GVMR volume file at path and registers it
// as dataset name, rendered with the tfPreset transfer function ("" means
// the neutral gray ramp). Names are case-insensitive and must not collide
// with a built-in or an earlier registration.
func RegisterVolumeFile(name, path, tfPreset string) error {
	name = strings.ToLower(strings.TrimSpace(name))
	if name == "" {
		return fmt.Errorf("dataset: empty volume name")
	}
	if builtin(name) {
		return fmt.Errorf("dataset: %q is a built-in dataset name", name)
	}
	if tfPreset == "" {
		tfPreset = "gray"
	}
	src, err := volume.OpenFileV2(path)
	if err != nil {
		return err
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registered[name]; dup {
		src.Close()
		return fmt.Errorf("dataset: volume %q already registered", name)
	}
	registered[name] = &fileEntry{path: path, tf: tfPreset, src: src}
	return nil
}

// UnregisterVolumeFile removes a registered volume and closes its file.
// Unknown names are a no-op. Intended for tests; servers register for the
// process lifetime.
func UnregisterVolumeFile(name string) error {
	name = strings.ToLower(strings.TrimSpace(name))
	regMu.Lock()
	e := registered[name]
	delete(registered, name)
	regMu.Unlock()
	if e == nil {
		return nil
	}
	return e.src.Close()
}

// Registered lists the registered file-volume names, sorted.
func Registered() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registered))
	for n := range registered {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// lookup returns the entry for name, or nil.
func lookup(name string) *fileEntry {
	regMu.RLock()
	defer regMu.RUnlock()
	return registered[strings.ToLower(name)]
}

// NativeDims returns the on-file dims of a registered volume.
func NativeDims(name string) (volume.Dims, bool) {
	if e := lookup(name); e != nil {
		return e.src.Dims(), true
	}
	return volume.Dims{}, false
}

// TFName maps a dataset name to the name its transfer function is looked
// up under: registered file volumes render with their configured preset,
// everything else (the built-ins) uses its own name.
func TFName(name string) string {
	if e := lookup(name); e != nil {
		return e.tf
	}
	return name
}

// FilePagerStats aggregates demand-pager counters across every registered
// volume, or nil when none is registered.
func FilePagerStats() *volume.PagerStats {
	regMu.RLock()
	defer regMu.RUnlock()
	if len(registered) == 0 {
		return nil
	}
	var agg volume.PagerStats
	for _, e := range registered {
		s := e.src.Stats()
		agg.Bricks += s.Bricks
		agg.BrickReads += s.BrickReads
		agg.BytesRead += s.BytesRead
		agg.Reloads += s.Reloads
		agg.Fallbacks += s.Fallbacks
		agg.SkippedBricks += s.SkippedBricks
		agg.ConstantFills += s.ConstantFills
	}
	return &agg
}
