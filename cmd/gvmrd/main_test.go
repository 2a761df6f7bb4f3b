package main

import "testing"

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
