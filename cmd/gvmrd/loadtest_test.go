package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"gvmr/internal/server"
	"gvmr/internal/volume"
	"gvmr/internal/volume/dataset"
)

// TestBitIdentityCheckRegisteredVolume: loadtest's bit-identity phase
// holds for a volume registered as -volume v=path@skull and requested as
// -dataset v, whose transfer function is the registration's preset, not
// one named after the dataset.
func TestBitIdentityCheckRegisteredVolume(t *testing.T) {
	src, err := dataset.New(dataset.Skull, volume.Cube(16))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "v.gvmr")
	if err := volume.WriteFileV2(path, src, volume.V2Options{BrickEdge: 8}); err != nil {
		t.Fatal(err)
	}
	if err := dataset.RegisterVolumeFile("v", path, "skull"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dataset.UnregisterVolumeFile("v") })

	s, err := server.New(server.Config{GPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close(context.Background()) })
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	url := ts.URL + "/render?dataset=v&edge=16&size=32&orbit=33.25&gpus=2&shading=true&format=raw"
	identical, err := bitIdentityCheck(http.DefaultClient, url, "v", 16, 32, 33.25, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if !identical {
		t.Error("served bits differ from the direct render")
	}
}
