package dist

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"time"
)

// sharedTransport is the tuned transport every dist HTTP client rides.
// http.DefaultTransport caps MaxIdleConnsPerHost at 2, which is exactly
// wrong for this topology: a coordinator holds a handful of workers and
// talks to each over many concurrent batch posts (plus hedges), and a
// worker pushing exchange ranges fans out to every peer at once — the
// third concurrent exchange with the same host tears its connection down
// on completion instead of pooling it, so steady state churns TCP
// handshakes. One process-wide transport also lets the coordinator and
// the worker push client share the same pool on daemons that are both.
var sharedTransport = &http.Transport{
	Proxy: http.ProxyFromEnvironment,
	DialContext: (&net.Dialer{
		Timeout:   10 * time.Second,
		KeepAlive: 30 * time.Second,
	}).DialContext,
	MaxIdleConns:          256,
	MaxIdleConnsPerHost:   32,
	IdleConnTimeout:       90 * time.Second,
	TLSHandshakeTimeout:   10 * time.Second,
	ExpectContinueTimeout: time.Second,
	ForceAttemptHTTP2:     true,
}

// newClient returns an HTTP client on the shared tuned transport. No
// blanket timeout — callers bound each exchange with a context deadline.
func newClient() *http.Client { return &http.Client{Transport: sharedTransport} }

// drainBody consumes and closes a response body so the keep-alive
// connection returns to the pool instead of being torn down. Bounded:
// a peer streaming garbage forfeits its connection rather than our time.
func drainBody(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, io.LimitReader(body, 64<<10))
	_ = body.Close()
}

// readSized is io.ReadAll with the buffer sized up front from the body's
// declared Content-Length (-1 when absent) instead of grown through it.
// The limit on what is read stays with r; sizeCap only keeps a lying
// header from reserving more than the caller would ever accept.
func readSized(r io.Reader, declared, sizeCap int64) ([]byte, error) {
	if declared <= 0 {
		return io.ReadAll(r)
	}
	buf := bytes.NewBuffer(make([]byte, 0, min(declared, sizeCap)+bytes.MinRead))
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}
