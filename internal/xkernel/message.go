// Package xkernel provides an x-kernel-style protocol framework
// (Hutchinson & Peterson [8]): a message abstraction with efficient
// header push/pop, a protocol composition interface, the Internet
// checksum, and the demux plumbing the IPv4 layer in ip builds on.
//
// No simulation, calibration or command imports it or ip: the
// calibration trace (internal/memtrace) is synthetic, not recorded from
// this code.
package xkernel

import (
	"errors"
	"fmt"
)

// Sentinel errors shared by the protocol layers.
var (
	// ErrTruncated reports a message too short for the requested header.
	ErrTruncated = errors.New("xkernel: message truncated")
	// ErrNoDemuxMatch reports that no upper protocol or session claimed
	// the message.
	ErrNoDemuxMatch = errors.New("xkernel: no demux match")
	// ErrBadChecksum reports a failed checksum verification.
	ErrBadChecksum = errors.New("xkernel: bad checksum")
	// ErrBadHeader reports a malformed header field.
	ErrBadHeader = errors.New("xkernel: bad header")
	// ErrNotLocal reports a datagram addressed to a non-local address.
	ErrNotLocal = errors.New("xkernel: not addressed to this host")
	// ErrTTLExpired reports a datagram whose TTL reached zero.
	ErrTTLExpired = errors.New("xkernel: ttl expired")
)

// Message is the x-kernel message tool: a byte buffer with headroom so
// protocol headers can be prepended (send side) and stripped (receive
// side) without copying the payload.
type Message struct {
	buf []byte
	off int // start of the current view
	end int // end of the current view
}

// NewMessage builds a send-side message carrying payload, reserving
// headroom bytes for headers to be pushed below it.
func NewMessage(headroom int, payload []byte) *Message {
	if headroom < 0 {
		panic("xkernel: negative headroom")
	}
	buf := make([]byte, headroom+len(payload))
	copy(buf[headroom:], payload)
	return &Message{buf: buf, off: headroom, end: len(buf)}
}

// FromBytes wraps a received frame for receive-side processing. The frame
// is not copied; layers pop headers off the front as they demultiplex.
func FromBytes(frame []byte) *Message {
	return &Message{buf: frame, off: 0, end: len(frame)}
}

// Len returns the current view length.
func (m *Message) Len() int { return m.end - m.off }

// Bytes returns the current view. The slice aliases the message buffer.
func (m *Message) Bytes() []byte { return m.buf[m.off:m.end] }

// Push prepends n bytes of header space and returns it for the caller to
// fill. It panics if the headroom is exhausted — send paths size their
// headroom at construction, so running out is a programming error.
func (m *Message) Push(n int) []byte {
	if n < 0 {
		panic("xkernel: negative push")
	}
	if m.off < n {
		panic(fmt.Sprintf("xkernel: push %d exceeds headroom %d", n, m.off))
	}
	m.off -= n
	return m.buf[m.off : m.off+n]
}

// Pop strips an n-byte header off the front and returns it, or
// ErrTruncated if the view is shorter than n.
func (m *Message) Pop(n int) ([]byte, error) {
	if n < 0 {
		panic("xkernel: negative pop")
	}
	if m.Len() < n {
		return nil, ErrTruncated
	}
	h := m.buf[m.off : m.off+n]
	m.off += n
	return h, nil
}

// Peek returns the first n bytes without consuming them.
func (m *Message) Peek(n int) ([]byte, error) {
	if m.Len() < n {
		return nil, ErrTruncated
	}
	return m.buf[m.off : m.off+n], nil
}

// Truncate shortens the view to n bytes, dropping trailing bytes (e.g.
// link-layer padding below an IP total-length). It is a no-op if the view
// is already at most n bytes.
func (m *Message) Truncate(n int) {
	if n < 0 {
		panic("xkernel: negative truncate")
	}
	if m.Len() > n {
		m.end = m.off + n
	}
}

// Clone returns an independent copy of the current view with the given
// headroom, for paths that must retain a message beyond the caller's
// buffer lifetime (e.g. reassembly).
func (m *Message) Clone(headroom int) *Message {
	return NewMessage(headroom, m.Bytes())
}

// Protocol is a receive-side protocol layer: Demux strips this layer's
// header from the message and passes it up.
type Protocol interface {
	Name() string
	Demux(m *Message) error
}

// Checksum computes the Internet checksum (RFC 1071) over b, starting
// from an initial partial sum (use 0, or a pseudo-header sum).
func Checksum(initial uint32, b []byte) uint16 {
	sum := initial
	for len(b) >= 2 {
		sum += uint32(b[0])<<8 | uint32(b[1])
		b = b[2:]
	}
	if len(b) == 1 {
		sum += uint32(b[0]) << 8
	}
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + sum>>16
	}
	return ^uint16(sum)
}

// PartialSum accumulates b into a running 32-bit one's-complement sum,
// for building pseudo-header checksums incrementally.
func PartialSum(initial uint32, b []byte) uint32 {
	sum := initial
	for len(b) >= 2 {
		sum += uint32(b[0])<<8 | uint32(b[1])
		b = b[2:]
	}
	if len(b) == 1 {
		sum += uint32(b[0]) << 8
	}
	return sum
}
