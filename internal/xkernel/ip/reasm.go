package ip

import (
	"sort"

	"affinity/internal/xkernel"
)

// reasmKey identifies a datagram being reassembled (RFC 791: source,
// destination, protocol, identification).
type reasmKey struct {
	src, dst Addr
	proto    uint8
	id       uint16
}

type fragment struct {
	off  int
	data []byte
	last bool
}

type reasmBucket struct {
	frags    []fragment
	totalLen int // payload length once the last fragment is seen, else -1
	arrived  uint64
}

// addFragment stores one fragment and, if it completes the datagram,
// returns the reassembled payload as a fresh message. The fragment's
// message view holds exactly its data (header already stripped).
func (p *Protocol) addFragment(h Header, m *xkernel.Message) *xkernel.Message {
	p.stats.Fragments++
	key := reasmKey{src: h.Src, dst: h.Dst, proto: h.Proto, id: h.ID}
	b, ok := p.reasm[key]
	if !ok {
		b = &reasmBucket{totalLen: -1}
		p.reasm[key] = b
	}
	b.arrived = p.clock

	data := make([]byte, m.Len())
	copy(data, m.Bytes())
	b.frags = append(b.frags, fragment{off: int(h.FragOff), data: data, last: !h.MoreFrag})
	if !h.MoreFrag {
		b.totalLen = int(h.FragOff) + len(data)
	}
	if b.totalLen < 0 {
		return nil
	}

	// Check contiguous coverage of [0, totalLen).
	sort.Slice(b.frags, func(i, j int) bool { return b.frags[i].off < b.frags[j].off })
	covered := 0
	for _, f := range b.frags {
		if f.off > covered {
			return nil // hole
		}
		if end := f.off + len(f.data); end > covered {
			covered = end
		}
	}
	if covered < b.totalLen {
		return nil
	}

	payload := make([]byte, b.totalLen)
	for _, f := range b.frags {
		end := f.off + len(f.data)
		if end > b.totalLen {
			end = b.totalLen
			f.data = f.data[:b.totalLen-f.off]
		}
		copy(payload[f.off:end], f.data)
	}
	delete(p.reasm, key)
	return xkernel.FromBytes(payload)
}

// Tick advances the reassembly clock one step and drops buckets older
// than ReasmTimeout ticks. Callers tick it on their own cadence,
// keeping expiry deterministic.
func (p *Protocol) Tick() {
	p.clock++
	for k, b := range p.reasm {
		if p.clock-b.arrived > p.ReasmTimeout {
			delete(p.reasm, k)
			p.stats.ReasmExpired++
		}
	}
}

// PendingReassemblies returns the number of incomplete datagrams held.
func (p *Protocol) PendingReassemblies() int { return len(p.reasm) }
