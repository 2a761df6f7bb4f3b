package server

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"reflect"
	"testing"

	"gvmr/internal/dist"
)

// checkNormalized holds a normalized request to the two properties that
// make it a sound frame identity: normalizing it again changes nothing —
// neither the Request that keys the cache and coalescer nor the job that
// renders it — and its job passes JobSpec.Validate at the service limits,
// the check every /map worker runs.
func checkNormalized(s *Service, r Request, job0 dist.JobSpec) error {
	again := r
	job, err := again.normalize(s)
	if err != nil {
		return fmt.Errorf("normalized %+v fails normalize: %v", r, err)
	}
	if again != r {
		return fmt.Errorf("normalize is not idempotent: %+v then %+v", r, again)
	}
	if !reflect.DeepEqual(job, job0) {
		return fmt.Errorf("%+v resolves to two jobs: %+v then %+v", r, job0, job)
	}
	if err := job.Validate(s.cfg.MaxEdge, s.cfg.MaxPixels); err != nil {
		return fmt.Errorf("job of %+v fails the workers' check: %v", r, err)
	}
	return nil
}

// FuzzRequestKey drives request normalization from the /render query
// string: every request the service accepts is a fixed point of
// normalize — so equal frames share one cache and coalescer key however
// they were spelled — and resolves to a job the workers accept. Seeds
// cover defaults, every parameter, and near-miss spellings.
func FuzzRequestKey(f *testing.F) {
	f.Add("dataset=skull&edge=64&size=256&orbit=0&gpus=4")
	f.Add("dataset=supernova&edge=432&w=512&h=512&orbit=123.456&gpus=8&shading=1&step=0.25&ta=1")
	f.Add("dataset=plume&edge=64&w=1024&h=768&orbit=-90&gpus=1&step=16&ta=0.5")
	f.Add("dataset=skull&edge=8&size=1&orbit=1e-09&gpus=1&shading=true&step=0.01&ta=0.0001")
	f.Add("edge=16&size=32&orbit=-0&bricks-per-gpu=2&partition=interleave:2")
	f.Add("edge=064&size=32&orbit=+0&step=1.0") // non-canonical spellings
	f.Add("dataset=skull&orbit=1 2")            // a space: not a valid URL
	f.Add("step=0.0099999&ta=NaN&orbit=Inf")
	f.Add("")
	f.Add("&&&=")
	s, err := New(Config{GPUs: 8})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, q string) {
		req, _, err := parseRenderRequest(&http.Request{URL: &url.URL{RawQuery: q}})
		if err != nil {
			return
		}
		job, err := req.normalize(s)
		if err != nil {
			return
		}
		if err := checkNormalized(s, req, job); err != nil {
			t.Fatalf("query %q: %v", q, err)
		}
	})
}

// TestKeyCodecRoundTripsNormalizedRequests drives the same two properties
// with randomized requests the service would actually serve, starting
// from the lowest step a client can spell.
func TestKeyCodecRoundTripsNormalizedRequests(t *testing.T) {
	s := newTestService(t, Config{GPUs: 8})
	rng := rand.New(rand.NewSource(42))
	datasets := []string{"skull", "supernova", "plume"}
	for i := 0; i < 2000; i++ {
		r := Request{
			Dataset: datasets[rng.Intn(len(datasets))],
			Edge:    8 + rng.Intn(64),
			Width:   1 + rng.Intn(512),
			Height:  1 + rng.Intn(512),
			Orbit:   (rng.Float64() - 0.5) * 1e4,
			GPUs:    1 + rng.Intn(8),
			Shading: rng.Intn(2) == 0,
			// Random float32 bit patterns inside the valid ranges.
			StepVoxels:       0.01 + float32(rng.Float64())*15.9,
			TerminationAlpha: float32(math.Nextafter(0, 1)) + float32(rng.Float64())*0.9999,
		}
		if i == 0 {
			r.StepVoxels = float32(0.01) // ?step=0.01: just below 0.01 in float64
		}
		job, err := r.normalize(s)
		if err != nil {
			t.Fatalf("case %d: normalize: %v", i, err)
		}
		if err := checkNormalized(s, r, job); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
	}
}
