// Package flatepool pools compress/flate state for the one place gvmr
// runs flate once per small payload: the stripe wire (internal/dist),
// whose columnar payload is a flate stream of the stripe table, the keys
// and the smooth byte planes, followed by the noise planes stored as they
// are. A flate.Writer is ~1 MB of match tables and a reader a 32 KB
// window; steady state allocates neither. Inflate reports where its
// stream ended, so a payload may carry bytes after it.
package flatepool

import (
	"bytes"
	"compress/flate"
	"io"
	"sync"
)

// Buf is pooled scratch: a byte slice a flate.Writer can append to.
type Buf []byte

func (b *Buf) Write(p []byte) (int, error) {
	*b = append(*b, p...)
	return len(p), nil
}

var bufs = sync.Pool{New: func() any { return new(Buf) }}

// GetBuf lends an empty buffer until PutBuf, when nothing may reference it.
func GetBuf() *Buf {
	b := bufs.Get().(*Buf)
	*b = (*b)[:0]
	return b
}

func PutBuf(b *Buf) { bufs.Put(b) }

// deflaters holds one pool per level: flate.HuffmanOnly (-2) is slot 0.
var deflaters [12]sync.Pool

// Deflate replaces out's contents with the flate stream of the parts of
// raw, in order — the bytes a fresh writer emits for them. An invalid
// level is a caller bug: it panics.
func Deflate(out *Buf, level int, raw ...[]byte) {
	pool := &deflaters[level+2]
	*out = (*out)[:0]
	zw, _ := pool.Get().(*flate.Writer)
	if zw == nil {
		zw, _ = flate.NewWriter(nil, level) // every level with a pool is valid
	}
	zw.Reset(out)
	for _, p := range raw {
		_, _ = zw.Write(p) // Buf writes cannot fail
	}
	_ = zw.Close()
	pool.Put(zw)
}

// inflater is a flate reader pooled with the bytes.Reader it reads from.
type inflater struct {
	src bytes.Reader
	zr  io.Reader
}

var inflaters = sync.Pool{New: func() any {
	in := new(inflater)
	in.zr = flate.NewReader(&in.src)
	return in
}}

// Inflate decompresses data into buf until the stream ends or buf holds
// limit bytes; callers bound the size they accept by passing one byte
// more and checking len(*buf). buf grows by doubling, never past limit.
// It returns how many bytes of data the stream occupied: a bytes.Reader
// is an io.ByteReader, so flate reads no byte past its final block, and
// once the stream has ended whatever follows it is the caller's. Reader
// and buffer are reset on entry, so an error poisons neither.
func Inflate(buf *Buf, data []byte, limit int64) (int, error) {
	in := inflaters.Get().(*inflater)
	defer inflaters.Put(in)
	in.src.Reset(data)
	defer in.src.Reset(nil)
	_ = in.zr.(flate.Resetter).Reset(&in.src, nil) // never fails
	b := (*buf)[:0]
	defer func() { *buf = b }()
	for int64(len(b)) < limit {
		if len(b) == cap(b) {
			grown := make([]byte, len(b), min(2*int64(cap(b))+4096, limit))
			copy(grown, b)
			b = grown
		}
		n, err := in.zr.Read(b[len(b):min(int64(cap(b)), limit)])
		b = b[:len(b)+n]
		if err == io.EOF {
			break // a final Read may carry bytes too: check len after
		}
		if err != nil {
			return 0, err
		}
	}
	return len(data) - in.src.Len(), nil
}
