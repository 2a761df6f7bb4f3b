package membership

import (
	"strings"
	"testing"
)

// FuzzRegisterWire proves the register decoder never panics and that any
// accepted body satisfies the registry's invariants: canonical address,
// well-formed instance token, no other field. The seeds mix valid
// documents with the hostile shapes the wire tests enumerate.
func FuzzRegisterWire(f *testing.F) {
	f.Add([]byte(`{"addr":"127.0.0.1:9001","instance":"abc123","capacity":{"device_workers":4,"staging_bytes":1048576}}`))
	f.Add([]byte(`{"addr":"http://[::1]:9001","instance":"a-b_c.d"}`))
	f.Add([]byte(`{"addr":"https://render.example.com:443","instance":"deadbeef01234567"}`))
	f.Add([]byte(`{"addr":"127.0.0.1:9001","instance":"a","evil":true}`))
	f.Add([]byte(`{"addr":42,"instance":"a"}`))
	f.Add([]byte(`{"addr":"127.0.0.1:9001","instance":"a"}{"addr":"127.0.0.1:9002","instance":"b"}`))
	f.Add([]byte(`{"addr":"http://u:p@h:1","instance":"a"}`))
	f.Add([]byte(`{"addr":"127.0.0.1:9001","instance":"a","capacity":{"device_workers":-1}}`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Add([]byte("{\"addr\":\"h\x00st:80\",\"instance\":\"a\"}"))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeRegister(data)
		if err != nil {
			return
		}
		// Accepted bodies must be fully normalized and bounded.
		norm, nerr := NormalizeAddr(req.Addr)
		if nerr != nil || norm != req.Addr {
			t.Fatalf("accepted addr %q not canonical (%q, %v)", req.Addr, norm, nerr)
		}
		if !strings.HasPrefix(req.Addr, "http://") && !strings.HasPrefix(req.Addr, "https://") {
			t.Fatalf("accepted addr %q lacks scheme", req.Addr)
		}
		if err := validInstance(req.Instance); err != nil {
			t.Fatalf("accepted instance %q invalid: %v", req.Instance, err)
		}
		// And must drive the registry without a panic or an error.
		r := New(Config{})
		if _, err := r.Register(req); err != nil {
			t.Fatalf("registry rejected decoded register %+v: %v", req, err)
		}
		if got := r.Snapshot().Eligible(); len(got) != 1 || got[0] != req.Addr {
			t.Fatalf("eligible = %v after registering %q", got, req.Addr)
		}
	})
}

// FuzzHeartbeatWire proves the heartbeat decoder never panics and that
// accepted bodies carry a canonical identity, and that
// feeding them to a live registry can't corrupt it.
func FuzzHeartbeatWire(f *testing.F) {
	f.Add([]byte(`{"addr":"127.0.0.1:9001","instance":"abc123","load":{"in_flight":1,"queue_depth":2,"map_jobs":3}}`))
	f.Add([]byte(`{"addr":"127.0.0.1:9001","instance":"abc123"}`))
	f.Add([]byte(`{"addr":"127.0.0.1:9001","instance":"a","load":{"in_flight":-1}}`))
	f.Add([]byte(`{"addr":"127.0.0.1:9001","instance":"a","load":{"cpus":9}}`))
	f.Add([]byte(`{"addr":"127.0.0.1:9001","instance":"a","load":{"map_jobs":999999999999999}}`))
	f.Add([]byte(`{"instance":"a"}`))
	f.Add([]byte(`"just a string"`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeHeartbeat(data)
		if err != nil {
			return
		}
		if norm, nerr := NormalizeAddr(req.Addr); nerr != nil || norm != req.Addr {
			t.Fatalf("accepted addr %q not canonical", req.Addr)
		}
		if err := validInstance(req.Instance); err != nil {
			t.Fatalf("accepted instance %q invalid: %v", req.Instance, err)
		}
		// Against an empty registry the beat must be a clean 404-class
		// rejection; after registering that identity it must succeed.
		r := New(Config{})
		if _, err := r.Heartbeat(req); err != ErrUnknownMember {
			t.Fatalf("beat on empty registry = %v, want ErrUnknownMember", err)
		}
		if _, err := r.Register(RegisterRequest{Addr: req.Addr, Instance: req.Instance}); err != nil {
			t.Fatalf("register decoded identity: %v", err)
		}
		resp, err := r.Heartbeat(req)
		if err != nil || resp.State != StateAlive {
			t.Fatalf("beat after register = (%+v, %v)", resp, err)
		}
	})
}
