package dist

import (
	"bytes"
	"math"
	"math/rand/v2"
	"testing"

	"gvmr/internal/composite"
	"gvmr/internal/core"
)

// listStripes is a fixture with per-pixel fragment lists: pixel 7 of
// unit 1 appears three times (a ray re-entering a non-convex unit), a
// NaN payload channel rides along, and one stripe is empty.
func listStripes() []core.BrickStripe {
	return []core.BrickStripe{
		{Brick: 1, Frags: []composite.Fragment{
			{Key: 7, R: 0.25, G: 0.5, B: 0.125, A: 0.75, Depth: 1.5},
			{Key: 7, R: 0.1, A: 0.5, Depth: 2.5},
			{Key: 7, G: math.Float32frombits(0x7fc00001), A: 1, Depth: 3.5},
			{Key: 9, A: 1, Depth: 0.5},
			{Key: 7, B: 0.375, A: 0.25, Depth: 4.5}, // second run of key 7
		}},
		{Brick: 3},
		{Brick: 4, Frags: []composite.Fragment{{Key: 0, A: 1, Depth: 0.25}}},
	}
}

func TestStripesV2RunHeadersCompact(t *testing.T) {
	// 64 fragments of one pixel = one run: 8 bytes of keys, not 4 per
	// fragment.
	frags := make([]composite.Fragment, 64)
	for i := range frags {
		frags[i] = composite.Fragment{Key: 42, A: 1, Depth: float32(i)}
	}
	s := []core.BrickStripe{{Brick: 0, Frags: frags}}
	v2 := encodeV2(s)
	wantV2 := v2StripeHeaderBytes + v2RunBytes + 64*v2FragBytes
	if len(v2) != wantV2 {
		t.Fatalf("v2 payload is %d bytes, want %d", len(v2), wantV2)
	}
}

func TestCompressStripesV2RoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name    string
		stripes []core.BrickStripe
	}{
		{"lists", listStripes()},
		{"empty-stripe", []core.BrickStripe{{Brick: 0}}},
	} {
		payload := encodeCF2(tc.stripes)
		back, err := decodeCF2(payload, 1<<20)
		if err != nil {
			t.Fatalf("%s: decompress: %v", tc.name, err)
		}
		if !stripesBitEqual(tc.stripes, back) {
			t.Fatalf("%s: cf2 round trip changed fragment bits", tc.name)
		}
		if again := encodeCF2(back); !bytes.Equal(again, payload) {
			t.Fatalf("%s: cf2 re-encode changed the payload bytes", tc.name)
		}
	}
	if got, err := decodeCF2(encodeCF2(nil), 1<<20); err != nil || got != nil {
		t.Fatalf("empty cf2 payload: got %v, %v", got, err)
	}
}

// TestEncodePayloadAsRoundTrips: the wire encoding round-trips through
// DecodePayload; the identity layout still encodes, as the raw-size
// reference, and is exactly encodeV2's output.
func TestEncodePayloadAsRoundTrips(t *testing.T) {
	s := listStripes()
	payload, err := EncodePayloadAs(s, EncodingColumnar2)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	back, err := DecodePayload(EncodingColumnar2, payload, 1<<20)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !stripesBitEqual(s, back) {
		t.Fatal("payload round trip changed stripes")
	}
	if raw, err := EncodePayloadAs(s, EncodingListV2); err != nil || !bytes.Equal(raw, encodeV2(s)) {
		t.Fatalf("%s reference: %d bytes, %v", EncodingListV2, len(raw), err)
	}
	for _, enc := range rejectedEncodings {
		if enc == EncodingListV2 {
			continue
		}
		if _, err := EncodePayloadAs(s, enc); err == nil {
			t.Errorf("EncodePayloadAs accepted encoding %q", enc)
		}
	}
}

// rejectedEncodings are labels a payload must never be parsed under: no
// label, the HTTP default, a stranger, the per-fragment-key codec this
// tree once shipped and the identity layout, which no hop carries.
var rejectedEncodings = []string{"", "identity", "gzip", "gvmr-cf1", EncodingListV2}

// TestDecodePayloadUnknownEncoding: exactly one name decodes. A valid
// payload under any other label is an error, never silently misparsed,
// and so is an identity payload under its own label.
func TestDecodePayloadUnknownEncoding(t *testing.T) {
	payload := encodeCF2(listStripes())
	for _, enc := range rejectedEncodings {
		if _, err := DecodePayload(enc, payload, 1<<20); err == nil {
			t.Errorf("DecodePayload parsed a %s payload labelled %q", EncodingColumnar2, enc)
		}
	}
	if _, err := DecodePayload(EncodingListV2, encodeV2(listStripes()), 1<<20); err == nil {
		t.Errorf("DecodePayload parsed a %s payload", EncodingListV2)
	}
}

// pinnedStripes is a fixed seeded stripe set: four units, one empty,
// 300 ascending pixels each, every pixel a list of depth fragments.
func pinnedStripes(depth int) []core.BrickStripe {
	r := rand.New(rand.NewPCG(21, uint64(depth)))
	stripes := make([]core.BrickStripe, 4)
	for u := range stripes {
		stripes[u].Brick = 2*u + 1
		if u == 2 {
			continue
		}
		key := int32(0)
		for p := 0; p < 300; p++ {
			key += 1 + r.Int32N(5)
			for d := 0; d < depth; d++ {
				a := r.Float32()
				stripes[u].Frags = append(stripes[u].Frags, composite.Fragment{
					Key: key, R: r.Float32() * a, G: r.Float32() * a, B: r.Float32() * a, A: a,
					Depth: float32(d) + r.Float32(),
				})
			}
		}
	}
	return stripes
}

// TestWireFormatPinned pins the two layouts byte for byte. The v2
// digests were recorded at the commit before the per-fragment-key codecs
// went, so the deletion moved no byte. The cf2 digest is of the format —
// the inflated stream followed by the plane mask and the stored planes —
// not of the flate framing, which a level change may move; it was
// re-recorded when the noise planes left the flate stream. The whole
// columnar stream, every plane packed — what a payload that stores no
// plane inflates to — keeps the digest it had before that.
func TestWireFormatPinned(t *testing.T) {
	for _, tc := range []struct {
		depth          int
		v2, whole, cf2 string
	}{
		{1, "b21f8c84f06d87f409f1e57abbc5364d76b19b7aeb96c1ac191318137279edf3",
			"884d0cc277f30ed5fbf9d1ef1fe14fc80a4b2a6c63c44e07bc2dff1c0284be03",
			"0c0c08b558c70f8ac3b820f0be1c55bf049e1719c01e12b813408eb33d84e96f"},
		{3, "d6333288b3f02ee4bc2ebebac588e4d68360f9c4a9c47b939137264af4108cbb",
			"902f41921c812e141448c5cbdf13640982e039ca34f8962ecf84e7f9a554b171",
			"f0b117781c97a0a161e852ad9e317cf672cb36604d767ffeff18c588e18454d3"},
	} {
		s := pinnedStripes(tc.depth)
		v2, err := EncodePayloadAs(s, EncodingListV2)
		if err != nil {
			t.Fatal(err)
		}
		if got := PayloadDigest(v2); got != tc.v2 {
			t.Errorf("depth %d: %s payload digest %s, pinned %s", tc.depth, EncodingListV2, got, tc.v2)
		}
		if whole, _, _ := appendColumnar(nil, s); PayloadDigest(whole) != tc.whole {
			t.Errorf("depth %d: whole columnar stream digest %s, pinned %s", tc.depth, PayloadDigest(whole), tc.whole)
		}
		cf2, err := EncodePayloadAs(s, EncodingColumnar2)
		if err != nil {
			t.Fatal(err)
		}
		format := append(stdInflate(t, cf2), cf2[len(flateSection(t, cf2)):]...)
		if got := PayloadDigest(format); got != tc.cf2 {
			t.Errorf("depth %d: %s format digest %s, pinned %s", tc.depth, EncodingColumnar2, got, tc.cf2)
		}
	}
}
