// Package ip implements the IPv4 layer of the stack: header
// encode/decode with checksum, receive-side validation, fragmentation
// and reassembly, and demultiplexing to transport protocols.
package ip

import (
	"encoding/binary"
	"errors"
	"fmt"

	"affinity/internal/xkernel"
)

// Addr is an IPv4 address.
type Addr [4]byte

func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", a[0], a[1], a[2], a[3])
}

// MustParse builds an Addr from four octets — a convenience for tests.
func MustParse(a, b, c, d byte) Addr { return Addr{a, b, c, d} }

// HeaderLen is the length of an option-less IPv4 header.
const HeaderLen = 20

// ProtoUDP and ProtoTCP are the IPv4 protocol numbers of the transports.
const (
	ProtoUDP = 17
	ProtoTCP = 6
)

// Flag bits in the flags/fragment-offset field.
const (
	flagDF = 0x4000
	flagMF = 0x2000
)

// Header is a decoded IPv4 header.
type Header struct {
	TOS      uint8
	TotalLen uint16
	ID       uint16
	DontFrag bool
	MoreFrag bool
	FragOff  uint16 // byte offset (already ×8)
	TTL      uint8
	Proto    uint8
	Src, Dst Addr
	optLen   int
}

// HeaderBytes returns the on-wire header length including options.
func (h Header) HeaderBytes() int { return HeaderLen + h.optLen }

// Encode prepends an option-less IPv4 header (with correct checksum) to
// a send-side message whose view currently holds the payload.
func (h Header) Encode(m *xkernel.Message) {
	payloadLen := m.Len()
	b := m.Push(HeaderLen)
	b[0] = 0x45 // version 4, IHL 5
	b[1] = h.TOS
	binary.BigEndian.PutUint16(b[2:4], uint16(HeaderLen+payloadLen))
	binary.BigEndian.PutUint16(b[4:6], h.ID)
	ff := h.FragOff / 8
	if h.DontFrag {
		ff |= flagDF
	}
	if h.MoreFrag {
		ff |= flagMF
	}
	binary.BigEndian.PutUint16(b[6:8], ff)
	b[8] = h.TTL
	b[9] = h.Proto
	b[10], b[11] = 0, 0
	copy(b[12:16], h.Src[:])
	copy(b[16:20], h.Dst[:])
	cs := xkernel.Checksum(0, b[:HeaderLen])
	binary.BigEndian.PutUint16(b[10:12], cs)
}

// DecodeHeader parses and validates an IPv4 header, verifying version,
// IHL, total length and checksum.
func DecodeHeader(b []byte) (Header, error) {
	var h Header
	if len(b) < HeaderLen {
		return h, xkernel.ErrTruncated
	}
	if b[0]>>4 != 4 {
		return h, fmt.Errorf("%w: version %d", xkernel.ErrBadHeader, b[0]>>4)
	}
	ihl := int(b[0]&0x0f) * 4
	if ihl < HeaderLen {
		return h, fmt.Errorf("%w: IHL %d", xkernel.ErrBadHeader, ihl)
	}
	if len(b) < ihl {
		return h, xkernel.ErrTruncated
	}
	if xkernel.Checksum(0, b[:ihl]) != 0 {
		return h, fmt.Errorf("%w: ip header", xkernel.ErrBadChecksum)
	}
	h.TOS = b[1]
	h.TotalLen = binary.BigEndian.Uint16(b[2:4])
	if int(h.TotalLen) < ihl {
		return h, fmt.Errorf("%w: total length %d < header %d", xkernel.ErrBadHeader, h.TotalLen, ihl)
	}
	h.ID = binary.BigEndian.Uint16(b[4:6])
	ff := binary.BigEndian.Uint16(b[6:8])
	h.DontFrag = ff&flagDF != 0
	h.MoreFrag = ff&flagMF != 0
	h.FragOff = (ff & 0x1fff) * 8
	h.TTL = b[8]
	h.Proto = b[9]
	copy(h.Src[:], b[12:16])
	copy(h.Dst[:], b[16:20])
	h.optLen = ihl - HeaderLen
	return h, nil
}

// Stats counts receive-side outcomes.
type Stats struct {
	Delivered    uint64 // datagrams handed to a transport
	Reassembled  uint64 // datagrams completed from fragments
	Fragments    uint64 // fragments accepted into the reassembly table
	BadChecksum  uint64
	BadHeader    uint64
	NotLocal     uint64
	TTLExpired   uint64
	NoUpper      uint64
	ReasmExpired uint64 // reassembly buckets dropped by Expire
}

// Protocol is the receive-side IPv4 layer.
type Protocol struct {
	local map[Addr]bool
	upper map[uint8]xkernel.Protocol
	reasm map[reasmKey]*reasmBucket
	clock uint64 // logical time for reassembly expiry (caller-driven ticks)

	// ReasmTimeout is the number of Tick calls after which an incomplete
	// reassembly bucket is dropped.
	ReasmTimeout uint64

	stats Stats
}

// New returns an IP endpoint owning the given local addresses.
func New(locals ...Addr) *Protocol {
	p := &Protocol{
		local:        make(map[Addr]bool, len(locals)),
		upper:        make(map[uint8]xkernel.Protocol),
		reasm:        make(map[reasmKey]*reasmBucket),
		ReasmTimeout: 64,
	}
	for _, a := range locals {
		p.local[a] = true
	}
	return p
}

// Name implements xkernel.Protocol.
func (p *Protocol) Name() string { return "ip" }

// RegisterUpper binds an IP protocol number to the transport above.
func (p *Protocol) RegisterUpper(proto uint8, up xkernel.Protocol) {
	p.upper[proto] = up
}

// Stats returns a copy of the counters.
func (p *Protocol) Stats() Stats { return p.stats }

// Demux validates the IP header, reassembles fragments, and delivers the
// complete datagram's payload to the bound transport protocol.
func (p *Protocol) Demux(m *xkernel.Message) error {
	raw := m.Bytes()
	h, err := DecodeHeader(raw)
	if err != nil {
		if errors.Is(err, xkernel.ErrBadChecksum) {
			p.stats.BadChecksum++
		} else {
			p.stats.BadHeader++
		}
		return err
	}
	if h.TTL == 0 {
		p.stats.TTLExpired++
		return xkernel.ErrTTLExpired
	}
	if !p.local[h.Dst] {
		p.stats.NotLocal++
		return xkernel.ErrNotLocal
	}
	if int(h.TotalLen) > m.Len() {
		p.stats.BadHeader++
		return fmt.Errorf("%w: total length %d exceeds frame %d", xkernel.ErrBadHeader, h.TotalLen, m.Len())
	}
	// Drop link-layer padding, then strip the header.
	m.Truncate(int(h.TotalLen))
	if _, err := m.Pop(h.HeaderBytes()); err != nil {
		p.stats.BadHeader++
		return err
	}

	if h.MoreFrag || h.FragOff != 0 {
		complete := p.addFragment(h, m)
		if complete == nil {
			return nil // held for reassembly
		}
		p.stats.Reassembled++
		m = complete
	}
	up, ok := p.upper[h.Proto]
	if !ok {
		p.stats.NoUpper++
		return fmt.Errorf("%w: ip proto %d", xkernel.ErrNoDemuxMatch, h.Proto)
	}
	// Transports that checksum over the pseudo-header (UDP, TCP) need
	// the enclosing datagram's addresses.
	if tp, ok := up.(interface{ SetPseudoHeader(src, dst Addr) }); ok {
		tp.SetPseudoHeader(h.Src, h.Dst)
	}
	if err := up.Demux(m); err != nil {
		return err
	}
	p.stats.Delivered++
	return nil
}

// Fragment splits a transport payload into IP fragments that fit mtu and
// returns them as send-side messages with headers encoded, in order. A
// payload that fits yields a single unfragmented datagram.
func Fragment(h Header, payload []byte, mtu, headroom int) []*xkernel.Message {
	maxData := mtu - HeaderLen
	maxData -= maxData % 8 // fragment data must be a multiple of 8, except the last
	if maxData <= 0 {
		panic(fmt.Sprintf("ip: mtu %d leaves no room for data", mtu))
	}
	var out []*xkernel.Message
	for off := 0; ; {
		n := len(payload) - off
		last := true
		if n > maxData {
			n, last = maxData, false
		}
		fh := h
		fh.FragOff = uint16(off)
		fh.MoreFrag = !last
		m := xkernel.NewMessage(headroom+HeaderLen, payload[off:off+n])
		fh.Encode(m)
		out = append(out, m)
		off += n
		if last {
			return out
		}
	}
}
