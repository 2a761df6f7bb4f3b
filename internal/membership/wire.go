package membership

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/url"
	"strconv"
	"strings"
)

// HTTP surface of the membership control plane (mounted by the
// coordinator's gvmrd next to /render and /map).
const (
	// RegisterPath admits a worker: POST a JSON RegisterRequest, receive
	// the lease terms.
	RegisterPath = "/register"
	// HeartbeatPath renews a lease: POST a JSON HeartbeatRequest.
	HeartbeatPath = "/heartbeat"
	// DrainPath marks a member draining: POST a JSON DrainRequest. The
	// 200 response is the drain acknowledgment — after it, the member
	// receives zero new placements.
	DrainPath = "/drain"
	// DeregisterPath removes a member: POST a JSON DeregisterRequest.
	DeregisterPath = "/deregister"

	// MaxBodyBytes bounds every membership request body: these are tiny
	// control-plane documents, and an unauthenticated peer must not be
	// able to buffer megabytes here.
	MaxBodyBytes = 64 << 10

	maxAddrLen     = 256
	maxInstanceLen = 128
)

// RegisterRequest announces a worker to the coordinator.
type RegisterRequest struct {
	// Addr is the address other nodes reach this worker at ("host:port"
	// or an explicit http(s) URL).
	Addr string `json:"addr"`
	// Instance uniquely identifies this process incarnation; a restart
	// registers with a fresh one, and stale incarnations are fenced off
	// heartbeat/deregister.
	Instance string `json:"instance"`
}

// RegisterResponse returns the lease terms the worker must beat on.
type RegisterResponse struct {
	State           State `json:"state"`
	HeartbeatMillis int64 `json:"heartbeat_millis"`
	MissLimit       int   `json:"miss_limit"`
}

// HeartbeatRequest renews a lease. It names the same identity a
// registration does, and nothing else: a worker's load is served by its
// own /stats.
type HeartbeatRequest RegisterRequest

// HeartbeatResponse carries the member's authoritative state back — a
// drained worker learns its fate here.
type HeartbeatResponse struct {
	State State `json:"state"`
}

// DrainRequest marks a member draining (self-initiated on SIGTERM, or by
// an operator).
type DrainRequest struct {
	Addr string `json:"addr"`
}

// DeregisterRequest removes a member. Instance, when non-empty, must
// match the current incarnation.
type DeregisterRequest struct {
	Addr     string `json:"addr"`
	Instance string `json:"instance,omitempty"`
}

// NormalizeAddr canonicalises a member address to "http://host:port" (or
// https). It rejects control characters, whitespace, embedded
// credentials, paths, queries and out-of-range ports, so a hostile
// registration can neither smuggle request targets nor collide two
// spellings of one node.
func NormalizeAddr(a string) (string, error) {
	if a == "" {
		return "", fmt.Errorf("membership: empty address")
	}
	if len(a) > maxAddrLen {
		return "", fmt.Errorf("membership: address longer than %d bytes", maxAddrLen)
	}
	for _, r := range a {
		if r <= ' ' || r == 0x7f {
			return "", fmt.Errorf("membership: address contains whitespace or control characters")
		}
	}
	scheme, rest := "http", a
	if i := strings.Index(a, "://"); i >= 0 {
		u, err := url.Parse(a)
		if err != nil {
			return "", fmt.Errorf("membership: bad address %q: %v", a, err)
		}
		if u.Scheme != "http" && u.Scheme != "https" {
			return "", fmt.Errorf("membership: unsupported scheme %q", u.Scheme)
		}
		if u.User != nil || u.RawQuery != "" || u.Fragment != "" || (u.Path != "" && u.Path != "/") {
			return "", fmt.Errorf("membership: address %q must be scheme://host:port only", a)
		}
		scheme, rest = u.Scheme, u.Host
	}
	host, port, err := net.SplitHostPort(rest)
	if err != nil {
		return "", fmt.Errorf("membership: address %q is not host:port: %v", a, err)
	}
	if host == "" {
		return "", fmt.Errorf("membership: address %q has no host", a)
	}
	if err := validHost(host); err != nil {
		return "", fmt.Errorf("membership: address %q: %v", a, err)
	}
	p, err := strconv.Atoi(port)
	if err != nil || p < 1 || p > 65535 {
		return "", fmt.Errorf("membership: address %q has bad port %q", a, port)
	}
	return scheme + "://" + net.JoinHostPort(host, strconv.Itoa(p)), nil
}

// validHost accepts IP literals and DNS-shaped names. Without this, the
// bare host:port path would canonicalise hosts like "#" or "?" into
// "URLs" that don't survive re-parsing (found by FuzzRegisterWire), and
// the canonical form must be a fixed point of NormalizeAddr.
func validHost(h string) error {
	if net.ParseIP(h) != nil {
		return nil
	}
	for _, r := range h {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '.':
		default:
			return fmt.Errorf("host contains %q (want a DNS name or IP literal)", r)
		}
	}
	return nil
}

// validInstance accepts short printable tokens: hex IDs, "static", and
// nothing that could confuse logs or headers.
func validInstance(s string) error {
	if s == "" {
		return fmt.Errorf("membership: empty instance")
	}
	if len(s) > maxInstanceLen {
		return fmt.Errorf("membership: instance longer than %d bytes", maxInstanceLen)
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return fmt.Errorf("membership: instance contains %q (want [a-zA-Z0-9._-])", r)
		}
	}
	return nil
}

// decodeStrict parses exactly one JSON document into dst: unknown fields,
// trailing bytes and oversized bodies are all errors. Every membership
// endpoint funnels hostile input through this.
func decodeStrict(data []byte, dst any) error {
	if int64(len(data)) > MaxBodyBytes {
		return fmt.Errorf("membership: body exceeds %d bytes", int64(MaxBodyBytes))
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("membership: bad request body: %v", err)
	}
	if dec.More() {
		return fmt.Errorf("membership: trailing data after request body")
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("membership: trailing data after request body")
	}
	return nil
}

// DecodeRegister parses and fully validates a register body: the returned
// request has a normalized address and a well-formed instance, or the
// input is rejected — never a panic, proven by the fuzz target. A body
// with any other field (a capacity or load from an older build) is
// refused as unknown.
func DecodeRegister(data []byte) (RegisterRequest, error) {
	var req RegisterRequest
	if err := decodeStrict(data, &req); err != nil {
		return RegisterRequest{}, err
	}
	norm, err := NormalizeAddr(req.Addr)
	if err != nil {
		return RegisterRequest{}, err
	}
	req.Addr = norm
	if err := validInstance(req.Instance); err != nil {
		return RegisterRequest{}, err
	}
	return req, nil
}

// DecodeHeartbeat parses and fully validates a heartbeat body, under the
// register body's rules.
func DecodeHeartbeat(data []byte) (HeartbeatRequest, error) {
	req, err := DecodeRegister(data)
	return HeartbeatRequest(req), err
}

// DecodeDrain parses and validates a drain body.
func DecodeDrain(data []byte) (DrainRequest, error) {
	var req DrainRequest
	if err := decodeStrict(data, &req); err != nil {
		return DrainRequest{}, err
	}
	norm, err := NormalizeAddr(req.Addr)
	if err != nil {
		return DrainRequest{}, err
	}
	req.Addr = norm
	return req, nil
}

// DecodeDeregister parses and validates a deregister body. Instance may
// be empty (operator-initiated removal).
func DecodeDeregister(data []byte) (DeregisterRequest, error) {
	var req DeregisterRequest
	if err := decodeStrict(data, &req); err != nil {
		return DeregisterRequest{}, err
	}
	norm, err := NormalizeAddr(req.Addr)
	if err != nil {
		return DeregisterRequest{}, err
	}
	req.Addr = norm
	if req.Instance != "" {
		if err := validInstance(req.Instance); err != nil {
			return DeregisterRequest{}, err
		}
	}
	return req, nil
}
