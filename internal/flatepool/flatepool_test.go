package flatepool

import (
	"bytes"
	"compress/flate"
	"errors"
	"io"
	"math/rand"
	"sync"
	"testing"
)

func payload(seed int64, n int) []byte {
	r := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(r.Intn(7)) // compressible, not trivial
	}
	return b
}

// TestDeflateMatchesFreshWriter: a pooled writer after Reset emits the
// bytes a fresh writer of the same level emits — the v2 volume writer's
// files and the wire's payloads do not depend on what the pool held.
func TestDeflateMatchesFreshWriter(t *testing.T) {
	out := GetBuf()
	defer PutBuf(out)
	for _, level := range []int{flate.HuffmanOnly, flate.DefaultCompression, flate.NoCompression, 4, flate.BestCompression} {
		for i, n := range []int{0, 1, 5000, 70000, 300} {
			raw := payload(int64(i), n)
			Deflate(out, level, raw)
			var want bytes.Buffer
			zw, err := flate.NewWriter(&want, level)
			if err != nil {
				t.Fatal(err)
			}
			zw.Write(raw)
			zw.Close()
			if !bytes.Equal(*out, want.Bytes()) {
				t.Errorf("level %d, %d bytes: pooled stream differs from a fresh writer's", level, n)
			}
		}
	}
}

// TestInflateBoundsAndRecovers: Inflate stops at limit bytes without
// growing the buffer past it, reports the stream's own errors, and a
// reader or buffer that saw a failure serves the next payload clean —
// also from many goroutines at once.
func TestInflateBoundsAndRecovers(t *testing.T) {
	raw := payload(9, 40000)
	z := GetBuf()
	defer PutBuf(z)
	Deflate(z, flate.DefaultCompression, raw)
	good := bytes.Clone(*z)

	buf := new(Buf)
	if _, err := Inflate(buf, good, 1001); err != nil || len(*buf) != 1001 || cap(*buf) > 1001 {
		t.Fatalf("limit 1001: len %d cap %d err %v", len(*buf), cap(*buf), err)
	}
	if _, err := Inflate(buf, good[:len(good)/2], 1<<20); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated stream: %v, want io.ErrUnexpectedEOF", err)
	}
	bad := bytes.Clone(good)
	bad[0] |= 0x06 // reserved block type
	var corrupt flate.CorruptInputError
	if _, err := Inflate(buf, bad, 1<<20); !errors.As(err, &corrupt) {
		t.Fatalf("corrupt stream: %v, want flate.CorruptInputError", err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := GetBuf()
			defer PutBuf(b)
			for i := 0; i < 20; i++ {
				if _, err := Inflate(b, good, int64(len(raw))+1); err != nil || !bytes.Equal(*b, raw) {
					t.Errorf("round trip after failures: %d bytes, %v", len(*b), err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestInflateReportsStreamEnd: flate streams are self-delimiting, so a
// payload may carry bytes after one — the stripe wire stores its noise
// planes there. Inflate must return the stream's own length whatever
// follows it, and Deflate of a payload's parts must inflate to their
// concatenation.
func TestInflateReportsStreamEnd(t *testing.T) {
	out, buf := GetBuf(), GetBuf()
	defer PutBuf(out)
	defer PutBuf(buf)
	for _, level := range []int{flate.HuffmanOnly, flate.NoCompression, 4, flate.BestCompression} {
		for i, n := range []int{0, 1, 5000, 70000} {
			raw := payload(int64(i), n)
			Deflate(out, level, raw[:n/3], raw[n/3:])
			stream := len(*out)
			for _, tail := range [][]byte{nil, {0}, payload(99, 700)} {
				data := append(bytes.Clone(*out), tail...)
				got, err := Inflate(buf, data, int64(n)+1)
				if err != nil || got != stream || !bytes.Equal(*buf, raw) {
					t.Errorf("level %d, %d bytes + %d trailing: stream of %d bytes reported %d (%v)",
						level, n, len(tail), stream, got, err)
				}
			}
		}
	}
}
