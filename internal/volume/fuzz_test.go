package volume

import (
	"strconv"
	"strings"
	"testing"
)

// FuzzParseBytes hammers the byte-count grammar of GVMR_STAGING_BYTES.
// The variable bounds memory, so
// the properties are safety properties: never panic, never return a
// negative or overflowed count, reject anything that is not plainly
// digits + one suffix, and stay consistent under the normalizations the
// parser itself performs (case, surrounding space).
func FuzzParseBytes(f *testing.F) {
	for _, s := range []string{
		"2G", "512MiB", "0", "off", "OFF", " 4 K ", "1GX", "1.5G", "+2M",
		"-1", "9223372036854775807", "8T", "16TiB", "0x10", "1e9", "2 G B",
		"۳M", "2 G", "18446744073709551616", "007", "", "K", "kib",
		"4096", "4294967296B",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		n, ok := ParseBytes(s)
		if !ok {
			if n != 0 {
				t.Fatalf("ParseBytes(%q) = (%d, false): rejected input must report 0", s, n)
			}
			return
		}
		if n < 0 {
			t.Fatalf("ParseBytes(%q) = %d: negative byte count", s, n)
		}
		// Case and surrounding-space insensitivity: the parser claims to
		// normalize both.
		for _, variant := range []string{strings.ToLower(s), strings.ToUpper(s), " " + s + " "} {
			vn, vok := ParseBytes(variant)
			if !vok || vn != n {
				t.Fatalf("ParseBytes(%q) = (%d, %v) disagrees with ParseBytes(%q) = %d",
					variant, vn, vok, s, n)
			}
		}
		// The resolved count reparses exactly when spelled in plain bytes
		// — the round trip an operator performs when copying a value out
		// of the stats endpoint back into the environment.
		n2, ok2 := ParseBytes(strconv.FormatInt(n, 10))
		if !ok2 || n2 != n {
			t.Fatalf("ParseBytes(%d) = (%d, %v): plain-digit round trip failed for %q", n, n2, ok2, s)
		}
	})
}
