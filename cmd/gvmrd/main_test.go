package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"gvmr/internal/cluster"
	"gvmr/internal/core"
	"gvmr/internal/img"
	"gvmr/internal/server"
	"gvmr/internal/transfer"
	"gvmr/internal/volume"
	"gvmr/internal/volume/dataset"
)

// directRender renders a /render request's frame straight through
// core.RenderOn, bypassing the service.
func directRender(ds string, edge, size int, orbit float64, gpus int, shading bool) (*img.Image, error) {
	src, err := dataset.New(ds, dataset.PaperDims(ds, edge))
	if err != nil {
		return nil, err
	}
	tf, err := transfer.Preset(dataset.TFName(ds))
	if err != nil {
		return nil, err
	}
	cam, err := core.OrbitCamera(src, size, size, orbit)
	if err != nil {
		return nil, err
	}
	res, _, err := core.RenderOn(cluster.AC(gpus), core.Options{
		Source: src, TF: tf, Width: size, Height: size,
		Camera: cam, GPUs: gpus, Shading: shading,
	}, 0)
	if err != nil {
		return nil, err
	}
	return res.Image, nil
}

// startServe runs serve with args on a port the kernel picks and returns
// its address and a stop function that cancels it and waits for a clean
// drain, after which nothing accepts on the address.
func startServe(t *testing.T, args ...string) (addr string, stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	out, stdout := io.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, append([]string{"serve", "-addr", "127.0.0.1:0"}, args...), stdout)
		stdout.Close()
	}()
	line, err := bufio.NewReader(out).ReadString('\n')
	if err != nil {
		cancel()
		t.Fatalf("no listening line: %v (run: %v)", err, <-done)
	}
	go io.Copy(io.Discard, out)
	addr, _, ok := strings.Cut(strings.TrimPrefix(line, "gvmrd: listening on "), " ")
	if !ok || addr == line {
		cancel()
		t.Fatalf("cannot read the address from %q", line)
	}
	return addr, func() {
		t.Helper()
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("serve did not drain cleanly: %v", err)
			}
		case <-time.After(time.Minute):
			t.Fatal("serve did not return after cancel")
		}
		if c, err := net.Dial("tcp", addr); err == nil {
			c.Close()
			t.Error("serve still accepts connections after draining")
		}
	}
}

// TestRunRejectsUnknownSubcommand: serve is the only subcommand; any
// other, loadtest included, is a usage error (exit status 2).
func TestRunRejectsUnknownSubcommand(t *testing.T) {
	for _, sub := range []string{"loadtest", "bench"} {
		var usage usageError
		if err := run(context.Background(), []string{sub}, io.Discard); !errors.As(err, &usage) {
			t.Errorf("run(%q) = %v, want a usage error", sub, err)
		}
	}
}

// TestParseVolumeFlag: -volume takes name=path with an optional
// @tf-preset; the last @ splits, so a path may hold one.
func TestParseVolumeFlag(t *testing.T) {
	for _, tc := range []struct {
		in, name, path, tf string
	}{
		{"skullfile=skull32.gvmr@skull", "skullfile", "skull32.gvmr", "skull"},
		{"vol=/data/v.gvmr", "vol", "/data/v.gvmr", ""},
		{"vol=/data/a@b/v.gvmr@plume", "vol", "/data/a@b/v.gvmr", "plume"},
		{"vol=v.gvmr@", "vol", "v.gvmr", ""},
	} {
		name, path, tf, err := parseVolumeFlag(tc.in)
		if err != nil || name != tc.name || path != tc.path || tf != tc.tf {
			t.Errorf("parseVolumeFlag(%q) = %q, %q, %q, %v; want %q, %q, %q",
				tc.in, name, path, tf, err, tc.name, tc.path, tc.tf)
		}
	}
	for _, bad := range []string{"", "skull32.gvmr", "=v.gvmr", "vol=", "vol=@skull"} {
		if _, _, _, err := parseVolumeFlag(bad); err == nil {
			t.Errorf("parseVolumeFlag(%q) accepted", bad)
		}
	}
}

// TestRunServe drives serve as the process would: it listens on a port
// the kernel picks, serves raw and PNG frames — rendered, then from the
// cache, and a HEAD — whose bodies are a direct render's encodings, and
// drains cleanly when its context is cancelled.
func TestRunServe(t *testing.T) {
	addr, stop := startServe(t, "-gpus", "2")

	// One raw view and one PNG view, each fetched twice: a render, then
	// a cache hit; the PNG view once more by HEAD.
	for _, v := range []struct {
		format string
		orbit  float64
	}{{"raw", 40}, {"png", 130}} {
		im, err := directRender("skull", 16, 32, v.orbit, 2, true)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if v.format == "raw" {
			err = im.EncodeRaw(&want)
		} else {
			err = im.EncodePNG(&want)
		}
		if err != nil {
			t.Fatal(err)
		}
		url := fmt.Sprintf("http://%s/render?dataset=skull&edge=16&size=32&orbit=%g&gpus=2&shading=1&format=%s",
			addr, v.orbit, v.format)
		for i, method := range []string{http.MethodGet, http.MethodGet, http.MethodHead} {
			if method == http.MethodHead && v.format == "raw" {
				continue
			}
			via := server.ViaCache
			if i == 0 {
				via = server.ViaRender
			}
			req, err := http.NewRequest(method, url, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("%s %s: HTTP %d: %s %v", method, url, resp.StatusCode, body, err)
			}
			h := resp.Header
			if h.Get(server.HeaderDigest) != im.Digest() || h.Get(server.HeaderServed) != string(via) ||
				h.Get("Content-Length") != strconv.Itoa(want.Len()) {
				t.Errorf("%s %s: digest %s, served %s, length %s; want %s, %s, %d", method, url,
					h.Get(server.HeaderDigest), h.Get(server.HeaderServed), h.Get("Content-Length"), im.Digest(), via, want.Len())
			}
			if method == http.MethodGet && !bytes.Equal(body, want.Bytes()) {
				t.Errorf("%s %s: body of %d bytes is not the direct render's %d", method, url, len(body), want.Len())
			}
		}
	}

	stop()
}

// TestBitIdentityCheckRegisteredVolume: a volume registered with
// -volume v=path@skull and requested as dataset=v is served in the bits
// of a direct render whose transfer function is the registration's
// preset, not one named after the dataset.
func TestBitIdentityCheckRegisteredVolume(t *testing.T) {
	src, err := dataset.New(dataset.Skull, volume.Cube(16))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "v.gvmr")
	if err := volume.WriteFileV2(path, src, volume.V2Options{BrickEdge: 8}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dataset.UnregisterVolumeFile("v") })
	addr, stop := startServe(t, "-gpus", "2", "-volume", "v="+path+"@skull")
	defer stop()

	resp, err := http.Get("http://" + addr + "/render?dataset=v&edge=16&size=32&orbit=33.25&gpus=2&shading=true&format=raw")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s %v", resp.StatusCode, body, err)
	}
	served, err := img.DecodeRaw(bytes.NewReader(body), 32, 32)
	if err != nil {
		t.Fatal(err)
	}
	im, err := directRender("v", 16, 32, 33.25, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if want := im.Digest(); served.Digest() != want || resp.Header.Get(server.HeaderDigest) != want {
		t.Errorf("served bits %s (header %s) differ from the direct render's %s",
			served.Digest(), resp.Header.Get(server.HeaderDigest), want)
	}
}
