package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"time"
)

// This file is the in-memory face of the rrcstream codec (stream.go): a
// zero-copy Source over an encoded byte slab, and the encoder that
// produces such slabs from any Source. Together they back the trace
// cache — a generated cohort trace is streamed once through the codec
// into a compact slab (2-5 bytes per packet instead of the 24-byte
// in-memory Packet), and every later replay decodes straight out of
// those shared bytes without copying or materializing.

// BytesSource is a Source decoding rrcstream frames directly from a byte
// slice. It is StreamReader without the io.Reader plumbing: no buffering,
// no per-frame reader calls, and no copy of the input — many BytesSources
// may replay one shared slab concurrently (each holds only its own
// cursor; the slab is never written). The validation is StreamReader's:
// the delta encoding makes unsorted or negative timestamps
// unrepresentable, sizes are bounded, and a truncated or overflowing
// frame is an error, so a BytesSource never yields an invalid packet.
type BytesSource struct {
	b    []byte
	off  int
	last time.Duration
	idx  int
	err  error
	done bool
}

// NewBytesSource checks the magic and returns a Source over the slab's
// frames. Input shorter than the magic reports ErrNotStream, like
// NewStreamReader.
func NewBytesSource(b []byte) (*BytesSource, error) {
	s := &BytesSource{}
	if err := s.Reset(b); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset re-points the source at a slab and rewinds it, so one BytesSource
// value can replay many slabs (or the same slab repeatedly) without
// allocating. It reports ErrNotStream when the slab does not start with
// the rrcstream magic.
func (s *BytesSource) Reset(b []byte) error {
	if len(b) < len(streamMagic) {
		return fmt.Errorf("%w: input shorter than the magic", ErrNotStream)
	}
	if !bytes.Equal(b[:len(streamMagic)], streamMagic[:]) {
		return ErrNotStream
	}
	*s = BytesSource{b: b, off: len(streamMagic)}
	return nil
}

// Next implements Source.
func (s *BytesSource) Next() (Packet, bool, error) {
	if s.done || s.err != nil {
		return Packet{}, false, s.err
	}
	if s.off == len(s.b) {
		s.done = true
		return Packet{}, false, nil
	}
	delta, n := binary.Uvarint(s.b[s.off:])
	if n <= 0 {
		return s.fail(fmt.Errorf("trace: stream frame %d: reading delta: truncated or overlong varint", s.idx))
	}
	s.off += n
	sd, n := binary.Uvarint(s.b[s.off:])
	if n <= 0 {
		return s.fail(fmt.Errorf("trace: stream frame %d: reading size: truncated or overlong varint", s.idx))
	}
	s.off += n
	if delta > uint64(math.MaxInt64)-uint64(s.last) {
		return s.fail(fmt.Errorf("trace: stream frame %d: timestamp overflow", s.idx))
	}
	size := sd >> 1
	if size >= uint64(maxStreamSize) {
		return s.fail(fmt.Errorf("trace: stream frame %d: implausible size %d", s.idx, size))
	}
	s.last += time.Duration(delta)
	p := Packet{T: s.last, Dir: Direction(sd & 1), Size: int(size)}
	s.idx++
	return p, true, nil
}

func (s *BytesSource) fail(err error) (Packet, bool, error) {
	s.err = err
	return Packet{}, false, err
}

// EncodeStream drains src through the rrcstream codec and returns the
// encoded slab — the bytes WriteStream would have produced for the
// collected trace, but built in one pass without materializing a Packet
// slice. The slab round-trips: a BytesSource (or StreamReader) over it
// yields exactly the packets src yielded, so replaying the slab is
// byte-identical to replaying the source. Frames are appended to one
// growing slice, so the returned slice may have spare capacity.
func EncodeStream(src Source) ([]byte, error) {
	b := append(make([]byte, 0, 4096), streamMagic[:]...)
	var last time.Duration
	wrote := false
	for {
		p, ok, err := src.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return b, nil
		}
		if b, err = appendFrame(b, p, last, wrote); err != nil {
			return nil, err
		}
		last, wrote = p.T, true
	}
}
