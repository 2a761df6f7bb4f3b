package membership

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestNormalizeAddr(t *testing.T) {
	cases := []struct {
		in   string
		want string // "" means reject
	}{
		{"127.0.0.1:9001", "http://127.0.0.1:9001"},
		{"http://127.0.0.1:9001", "http://127.0.0.1:9001"},
		{"http://127.0.0.1:9001/", "http://127.0.0.1:9001"},
		{"https://render-3.example.com:443", "https://render-3.example.com:443"},
		{"[::1]:9001", "http://[::1]:9001"},
		{"http://[::1]:9001", "http://[::1]:9001"},
		{"", ""},
		{"127.0.0.1", ""},                      // no port
		{"127.0.0.1:0", ""},                    // port out of range
		{"127.0.0.1:70000", ""},                // port out of range
		{"127.0.0.1:abc", ""},                  // non-numeric port
		{"ftp://127.0.0.1:21", ""},             // scheme
		{"http://u:p@h:1", ""},                 // credentials
		{"http://h:1/path", ""},                // path
		{"http://h:1?q=1", ""},                 // query
		{"http://h:1#frag", ""},                // fragment
		{"#:1", ""},                            // non-host char (fuzz find)
		{"h#st:80", ""},                        // non-host char
		{"host name:80", ""},                   // whitespace
		{"host\x00:80", ""},                    // control char
		{"host\n:80", ""},                      // newline
		{strings.Repeat("a", 300) + ":80", ""}, // too long
	}
	for _, c := range cases {
		got, err := NormalizeAddr(c.in)
		if c.want == "" {
			if err == nil {
				t.Errorf("NormalizeAddr(%q) = %q, want rejection", c.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("NormalizeAddr(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("NormalizeAddr(%q) = %q, want %q", c.in, got, c.want)
		}
		// Canonical forms are fixed points.
		again, err := NormalizeAddr(got)
		if err != nil || again != got {
			t.Errorf("NormalizeAddr(%q) not idempotent: %q, %v", got, again, err)
		}
	}
}

func TestDecodeRegisterRejectsHostileBodies(t *testing.T) {
	valid := `{"addr":"127.0.0.1:9001","instance":"abc123"}`
	if _, err := DecodeRegister([]byte(valid)); err != nil {
		t.Fatalf("valid register rejected: %v", err)
	}
	hostile := map[string]string{
		"empty":            ``,
		"not json":         `hello`,
		"unknown field":    `{"addr":"127.0.0.1:9001","instance":"a","evil":true}`,
		"trailing garbage": valid + `{"addr":"127.0.0.1:9002","instance":"b"}`,
		"trailing token":   valid + ` true`,
		"bad addr":         `{"addr":"ftp://x:1","instance":"a"}`,
		"empty instance":   `{"addr":"127.0.0.1:9001","instance":""}`,
		"instance chars":   `{"addr":"127.0.0.1:9001","instance":"a b\nc"}`,
		"capacity field":   `{"addr":"127.0.0.1:9001","instance":"a","capacity":{"device_workers":4}}`,
		"negative staging": `{"addr":"127.0.0.1:9001","instance":"a","capacity":{"staging_bytes":-1}}`,
		"wrong type":       `{"addr":42,"instance":"a"}`,
		"array body":       `[1,2,3]`,
	}
	for name, body := range hostile {
		if _, err := DecodeRegister([]byte(body)); err == nil {
			t.Errorf("%s: accepted %q", name, body)
		}
	}
	// Oversized body.
	big, _ := json.Marshal(RegisterRequest{Addr: "127.0.0.1:9001", Instance: strings.Repeat("a", MaxBodyBytes)})
	if _, err := DecodeRegister(big); err == nil {
		t.Error("oversized register body accepted")
	}
}

func TestDecodeHeartbeatRejectsHostileBodies(t *testing.T) {
	valid := `{"addr":"127.0.0.1:9001","instance":"abc123"}`
	req, err := DecodeHeartbeat([]byte(valid))
	if err != nil {
		t.Fatalf("valid heartbeat rejected: %v", err)
	}
	if req.Addr != "http://127.0.0.1:9001" || req.Instance != "abc123" {
		t.Fatalf("decoded heartbeat = %+v", req)
	}
	hostile := map[string]string{
		"load field":         `{"addr":"127.0.0.1:9001","instance":"a","load":{"in_flight":1,"map_jobs":3}}`,
		"negative in-flight": `{"addr":"127.0.0.1:9001","instance":"a","load":{"in_flight":-1}}`,
		"giant queue":        `{"addr":"127.0.0.1:9001","instance":"a","load":{"queue_depth":9999999}}`,
		"negative map jobs":  `{"addr":"127.0.0.1:9001","instance":"a","load":{"map_jobs":-5}}`,
		"unknown load field": `{"addr":"127.0.0.1:9001","instance":"a","load":{"cpus":9}}`,
		"missing addr":       `{"instance":"a"}`,
	}
	for name, body := range hostile {
		if _, err := DecodeHeartbeat([]byte(body)); err == nil {
			t.Errorf("%s: accepted %q", name, body)
		}
	}
}

func TestDecodeDrainAndDeregister(t *testing.T) {
	dr, err := DecodeDrain([]byte(`{"addr":"127.0.0.1:9001"}`))
	if err != nil || dr.Addr != "http://127.0.0.1:9001" {
		t.Fatalf("DecodeDrain = (%+v, %v)", dr, err)
	}
	if _, err := DecodeDrain([]byte(`{"addr":"127.0.0.1:9001","x":1}`)); err == nil {
		t.Error("drain with unknown field accepted")
	}
	de, err := DecodeDeregister([]byte(`{"addr":"127.0.0.1:9001"}`))
	if err != nil || de.Instance != "" {
		t.Fatalf("operator deregister (no instance) rejected: %+v, %v", de, err)
	}
	if _, err := DecodeDeregister([]byte(`{"addr":"127.0.0.1:9001","instance":"bad id"}`)); err == nil {
		t.Error("deregister with malformed instance accepted")
	}
}
