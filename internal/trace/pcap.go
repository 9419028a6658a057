package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"time"
)

// This file reads and writes classic libpcap capture files, so the traces
// this library consumes can come straight from tcpdump — the tool the
// paper's data collection used on the phones.
//
// Reading: the global header's magic selects byte order and timestamp
// resolution; each record's captured bytes are parsed through the link
// layer (Ethernet, Linux cooked, raw IP) down to IPv4/IPv6 to find the
// source and destination addresses. Packet direction (device -> network or
// network -> device) requires knowing which address is the phone; callers
// can supply it, or the reader infers it as the address that participates
// in the most packets (on a single-device capture, the phone is an
// endpoint of every flow).
//
// Writing: each trace packet becomes a synthetic Ethernet+IPv4+UDP frame
// of the recorded size between a fixed device address and a fixed remote,
// preserving timestamps, directions and sizes — everything this library's
// algorithms consume. Round-tripping a trace through WritePcap/ReadPcap is
// therefore lossless for our purposes (tested), though of course the
// original payloads are not reconstructed.

const (
	pcapMagicMicro   = 0xa1b2c3d4
	pcapMagicNano    = 0xa1b23c4d
	pcapVersionMajor = 2
	pcapVersionMinor = 4

	linkNull     = 0   // BSD loopback: 4-byte family
	linkEthernet = 1   // DLT_EN10MB
	linkRaw      = 101 // raw IP
	linkSLL      = 113 // Linux cooked capture
)

// ErrNotPcap is returned when the stream does not start with a pcap magic.
var ErrNotPcap = errors.New("trace: not a pcap file")

// PcapOptions tunes ReadPcap.
type PcapOptions struct {
	// DeviceIP identifies the mobile device in the capture; packets whose
	// source is DeviceIP are Out, all others In. When unset, the reader
	// infers the device as the address participating in the most packets.
	DeviceIP netip.Addr
	// KeepUnparsed, when true, keeps records whose network layer cannot
	// be parsed (ARP and friends) as zero-size In packets rather than
	// dropping them.
	KeepUnparsed bool
}

type pcapHeader struct {
	order binary.ByteOrder
	nanos bool
	link  uint32
}

// ReadPcap parses a classic pcap capture into a Trace. Timestamps are
// rebased so the first packet is at offset 0. Direction is resolved per
// PcapOptions.
func ReadPcap(r io.Reader, opts *PcapOptions) (Trace, error) {
	br := bufio.NewReader(r)
	hdr, err := readPcapHeader(br)
	if err != nil {
		return nil, err
	}

	type rawPkt struct {
		ts       time.Duration
		size     int
		src, dst netip.Addr
		parsed   bool
	}
	var pkts []rawPkt
	var rec pcapRecord
	for {
		ok, err := rec.read(br, hdr, -1)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		src, dst, parsed := parseNetwork(hdr.link, rec.body)
		pkts = append(pkts, rawPkt{ts: rec.ts, size: rec.origlen, src: src, dst: dst, parsed: parsed})
	}
	if len(pkts) == 0 {
		return Trace{}, nil
	}

	device := netip.Addr{}
	if opts != nil && opts.DeviceIP.IsValid() {
		device = opts.DeviceIP
	} else {
		device = inferDevice(func(yield func(src, dst netip.Addr)) {
			for _, p := range pkts {
				if p.parsed {
					yield(p.src, p.dst)
				}
			}
		})
	}

	keepUnparsed := opts != nil && opts.KeepUnparsed
	base := pkts[0].ts
	var tr Trace
	for _, p := range pkts {
		if !p.parsed && !keepUnparsed {
			continue
		}
		dir := In
		if p.parsed && p.src == device {
			dir = Out
		}
		size := p.size
		if !p.parsed {
			size = 0
		}
		tr = append(tr, Packet{T: p.ts - base, Dir: dir, Size: size})
	}
	tr.Sort() // guard against out-of-order captures
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}

func readPcapHeader(br *bufio.Reader) (pcapHeader, error) {
	var h [24]byte
	if _, err := io.ReadFull(br, h[:]); err != nil {
		return pcapHeader{}, fmt.Errorf("trace: pcap global header: %w", err)
	}
	magicLE := binary.LittleEndian.Uint32(h[0:4])
	magicBE := binary.BigEndian.Uint32(h[0:4])
	var hdr pcapHeader
	switch {
	case magicLE == pcapMagicMicro:
		hdr.order = binary.LittleEndian
	case magicLE == pcapMagicNano:
		hdr.order, hdr.nanos = binary.LittleEndian, true
	case magicBE == pcapMagicMicro:
		hdr.order = binary.BigEndian
	case magicBE == pcapMagicNano:
		hdr.order, hdr.nanos = binary.BigEndian, true
	default:
		return pcapHeader{}, ErrNotPcap
	}
	hdr.link = hdr.order.Uint32(h[20:24])
	return hdr, nil
}

// pcapRecord is one capture record: its timestamp, original length and
// captured bytes. body is reused by the next read.
type pcapRecord struct {
	ts      time.Duration
	origlen int
	body    []byte
}

// read parses the next record from br into rec; ok is false at a clean
// end of file. idx numbers the record in PcapSource's errors; ReadPcap's
// errors, with idx < 0, carry no number.
func (rec *pcapRecord) read(br *bufio.Reader, hdr pcapHeader, idx int) (ok bool, err error) {
	var h [16]byte
	if _, err := io.ReadFull(br, h[:]); err != nil {
		if err == io.EOF {
			return false, nil
		}
		if idx < 0 {
			return false, fmt.Errorf("trace: pcap record header: %w", err)
		}
		return false, fmt.Errorf("trace: pcap record %d header: %w", idx, err)
	}
	sec := hdr.order.Uint32(h[0:4])
	frac := hdr.order.Uint32(h[4:8])
	caplen := hdr.order.Uint32(h[8:12])
	const maxFrame = 256 * 1024
	if caplen > maxFrame {
		if idx < 0 {
			return false, fmt.Errorf("trace: pcap caplen %d implausible", caplen)
		}
		return false, fmt.Errorf("trace: pcap record %d: caplen %d implausible", idx, caplen)
	}
	if cap(rec.body) < int(caplen) {
		rec.body = make([]byte, caplen)
	}
	rec.body = rec.body[:caplen]
	if _, err := io.ReadFull(br, rec.body); err != nil {
		if idx < 0 {
			return false, fmt.Errorf("trace: pcap record body: %w", err)
		}
		return false, fmt.Errorf("trace: pcap record %d body: %w", idx, err)
	}
	rec.ts = time.Duration(sec) * time.Second
	if hdr.nanos {
		rec.ts += time.Duration(frac)
	} else {
		rec.ts += time.Duration(frac) * time.Microsecond
	}
	rec.origlen = int(hdr.order.Uint32(h[12:16]))
	return true, nil
}

// parseNetwork walks the link layer and extracts IP endpoints.
func parseNetwork(link uint32, frame []byte) (src, dst netip.Addr, ok bool) {
	var payload []byte
	var etherType uint16
	switch link {
	case linkEthernet:
		if len(frame) < 14 {
			return src, dst, false
		}
		etherType = binary.BigEndian.Uint16(frame[12:14])
		payload = frame[14:]
		// 802.1Q VLAN tag.
		if etherType == 0x8100 && len(payload) >= 4 {
			etherType = binary.BigEndian.Uint16(payload[2:4])
			payload = payload[4:]
		}
	case linkSLL:
		if len(frame) < 16 {
			return src, dst, false
		}
		etherType = binary.BigEndian.Uint16(frame[14:16])
		payload = frame[16:]
	case linkRaw:
		payload = frame
		etherType = ipEtherType(payload)
	case linkNull:
		if len(frame) < 4 {
			return src, dst, false
		}
		payload = frame[4:]
		etherType = ipEtherType(payload)
	default:
		return src, dst, false
	}

	switch etherType {
	case 0x0800: // IPv4
		return parseIPv4(payload)
	case 0x86DD: // IPv6
		return parseIPv6(payload)
	default:
		return src, dst, false
	}
}

func ipEtherType(payload []byte) uint16 {
	if len(payload) == 0 {
		return 0
	}
	switch payload[0] >> 4 {
	case 4:
		return 0x0800
	case 6:
		return 0x86DD
	default:
		return 0
	}
}

func parseIPv4(b []byte) (src, dst netip.Addr, ok bool) {
	if len(b) < 20 || b[0]>>4 != 4 {
		return src, dst, false
	}
	src = netip.AddrFrom4([4]byte(b[12:16]))
	dst = netip.AddrFrom4([4]byte(b[16:20]))
	return src, dst, true
}

func parseIPv6(b []byte) (src, dst netip.Addr, ok bool) {
	if len(b) < 40 || b[0]>>4 != 6 {
		return src, dst, false
	}
	src = netip.AddrFrom16([16]byte(b[8:24]))
	dst = netip.AddrFrom16([16]byte(b[24:40]))
	return src, dst, true
}

// inferDevice picks the address that appears (as either endpoint) in the
// most packets: on a single-device capture that is the device.
func inferDevice(each func(func(src, dst netip.Addr))) netip.Addr {
	counts := map[netip.Addr]int{}
	each(func(src, dst netip.Addr) {
		counts[src]++
		counts[dst]++
	})
	var best netip.Addr
	bestN := -1
	for a, n := range counts {
		if n > bestN || (n == bestN && a.Less(best)) {
			best, bestN = a, n
		}
	}
	return best
}

// PcapSource is a streaming pcap decoder: it parses records one at a time
// and yields packets in O(1) memory, never materializing the capture.
//
// Two things the materializing ReadPcap does are impossible in one
// streaming pass and are therefore traded away:
//
//   - Device inference needs the whole capture, so PcapSource requires
//     PcapOptions.DeviceIP (NewPcapSource errors without it).
//   - Out-of-order captures cannot be re-sorted, so a timestamp regression
//     is an error rather than silently reordered. tcpdump single-interface
//     captures are in order; fall back to ReadPcap otherwise.
type PcapSource struct {
	br     *bufio.Reader
	hdr    pcapHeader
	device netip.Addr
	keep   bool
	based  bool
	base   time.Duration
	last   time.Duration
	idx    int
	rec    pcapRecord
	err    error
	done   bool
}

// NewPcapSource parses the global header and returns a streaming Source
// over the capture's records. opts.DeviceIP is required (see PcapSource).
func NewPcapSource(r io.Reader, opts *PcapOptions) (*PcapSource, error) {
	if opts == nil || !opts.DeviceIP.IsValid() {
		return nil, errors.New("trace: streaming pcap requires PcapOptions.DeviceIP (device inference needs the whole capture; use ReadPcap)")
	}
	br := bufio.NewReader(r)
	hdr, err := readPcapHeader(br)
	if err != nil {
		return nil, err
	}
	return &PcapSource{br: br, hdr: hdr, device: opts.DeviceIP, keep: opts.KeepUnparsed}, nil
}

// Next implements Source.
func (ps *PcapSource) Next() (Packet, bool, error) {
	for {
		if ps.done || ps.err != nil {
			return Packet{}, false, ps.err
		}
		ok, err := ps.rec.read(ps.br, ps.hdr, ps.idx)
		if err != nil {
			return ps.fail(err)
		}
		if !ok {
			ps.done = true
			return Packet{}, false, nil
		}
		ts := ps.rec.ts
		if !ps.based {
			ps.base, ps.based = ts, true
		}
		if ts < ps.base+ps.last {
			return ps.fail(fmt.Errorf("trace: pcap record %d out of order (%v after %v); streaming decode needs an in-order capture, use ReadPcap", ps.idx, ts-ps.base, ps.last))
		}
		ps.idx++
		src, _, parsed := parseNetwork(ps.hdr.link, ps.rec.body)
		if !parsed && !ps.keep {
			continue
		}
		dir := In
		if parsed && src == ps.device {
			dir = Out
		}
		size := ps.rec.origlen
		if !parsed {
			size = 0
		}
		ps.last = ts - ps.base
		return Packet{T: ps.last, Dir: dir, Size: size}, true, nil
	}
}

func (ps *PcapSource) fail(err error) (Packet, bool, error) {
	ps.err = err
	return Packet{}, false, err
}

// Synthetic endpoints used by WritePcap.
var (
	pcapDeviceIP = netip.AddrFrom4([4]byte{10, 0, 0, 1})
	pcapRemoteIP = netip.AddrFrom4([4]byte{192, 0, 2, 80}) // TEST-NET-1
)

// PcapDeviceIP returns the device address WritePcap synthesizes, for use
// as PcapOptions.DeviceIP when round-tripping.
func PcapDeviceIP() netip.Addr { return pcapDeviceIP }

// WritePcap writes the trace as a classic little-endian microsecond pcap
// with synthetic Ethernet+IPv4+UDP framing: timestamps, directions and
// sizes round-trip; payload content is zeros.
func WritePcap(w io.Writer, tr Trace) error {
	bw := bufio.NewWriter(w)
	var gh [24]byte
	le := binary.LittleEndian
	le.PutUint32(gh[0:4], pcapMagicMicro)
	le.PutUint16(gh[4:6], pcapVersionMajor)
	le.PutUint16(gh[6:8], pcapVersionMinor)
	le.PutUint32(gh[16:20], 65535) // snaplen
	le.PutUint32(gh[20:24], linkEthernet)
	if _, err := bw.Write(gh[:]); err != nil {
		return err
	}

	const minFrame = 14 + 20 + 8 // Ethernet + IPv4 + UDP
	for _, p := range tr {
		frame := buildFrame(p)
		var rh [16]byte
		le.PutUint32(rh[0:4], uint32(p.T/time.Second))
		le.PutUint32(rh[4:8], uint32(p.T%time.Second)/1000)
		le.PutUint32(rh[8:12], uint32(len(frame)))
		origLen := p.Size
		if origLen < minFrame {
			origLen = minFrame
		}
		le.PutUint32(rh[12:16], uint32(origLen))
		if _, err := bw.Write(rh[:]); err != nil {
			return err
		}
		if _, err := bw.Write(frame); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// buildFrame assembles the synthetic Ethernet+IPv4+UDP frame for a packet.
// The frame is capped at 2048 captured bytes (like a snaplen) — original
// sizes live in the record header.
func buildFrame(p Packet) []byte {
	size := p.Size
	const minFrame = 14 + 20 + 8
	if size < minFrame {
		size = minFrame
	}
	const snap = 2048
	capLen := size
	if capLen > snap {
		capLen = snap
	}
	frame := make([]byte, capLen)
	// Ethernet.
	copy(frame[0:6], []byte{2, 0, 0, 0, 0, 2})
	copy(frame[6:12], []byte{2, 0, 0, 0, 0, 1})
	binary.BigEndian.PutUint16(frame[12:14], 0x0800)
	// IPv4.
	ip := frame[14:]
	ip[0] = 0x45
	ipLen := size - 14
	if ipLen > 65535 {
		ipLen = 65535
	}
	binary.BigEndian.PutUint16(ip[2:4], uint16(ipLen))
	ip[8] = 64 // TTL
	ip[9] = 17 // UDP
	src, dst := pcapDeviceIP, pcapRemoteIP
	if p.Dir == In {
		src, dst = dst, src
	}
	copy(ip[12:16], src.AsSlice())
	copy(ip[16:20], dst.AsSlice())
	// UDP.
	udp := ip[20:]
	binary.BigEndian.PutUint16(udp[0:2], 40000)
	binary.BigEndian.PutUint16(udp[2:4], 53)
	udpLen := ipLen - 20
	if udpLen > 65535 {
		udpLen = 65535
	}
	binary.BigEndian.PutUint16(udp[4:6], uint16(udpLen))
	return frame
}
