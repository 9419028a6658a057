package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"
)

// This file implements the streaming binary trace format ("rrcstream"): a
// framed codec designed so both ends run in O(1) memory. Unlike the rrcbin
// container (which front-loads a packet count and fixed-size records), a
// stream file is just a magic header followed by self-delimiting frames —
// a writer can emit packets as a generator produces them, and a reader can
// feed a replay engine without ever holding the trace.
//
// Frame layout, per packet:
//
//	uvarint   delta   timestamp delta to the previous packet, nanoseconds
//	uvarint   sd      size<<1 | dir   (dir: 0 = out/uplink, 1 = in/downlink)
//
// Delta encoding exploits the sortedness invariant (deltas are always
// >= 0) and makes typical packets 2-5 bytes instead of rrcbin's fixed 13.
// End of stream is end of input; a truncated final frame is an error.

// streamMagic identifies the streaming trace format.
var streamMagic = [8]byte{'R', 'R', 'C', 'S', 'T', 'R', 'M', '1'}

// ErrNotStream is returned when input does not start with the streaming
// trace magic.
var ErrNotStream = errors.New("trace: bad magic (not a streaming trace)")

// maxStreamSize bounds a single decoded packet size: large enough for any
// real frame, small enough that a forged varint cannot smuggle an absurd
// value into int arithmetic downstream (decoded sizes fit a 32-bit int).
const maxStreamSize int64 = 1 << 31

// StreamWriter encodes packets into the streaming binary format as they
// arrive. It enforces the Trace invariants (sorted timestamps, valid
// directions, non-negative sizes) at the boundary, so any file it produces
// decodes back to a valid trace.
type StreamWriter struct {
	bw    *bufio.Writer
	last  time.Duration
	wrote bool
	buf   [2 * binary.MaxVarintLen64]byte
}

// NewStreamWriter writes the format magic and returns a writer ready for
// packets. Call Flush when done.
func NewStreamWriter(w io.Writer) (*StreamWriter, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(streamMagic[:]); err != nil {
		return nil, err
	}
	return &StreamWriter{bw: bw}, nil
}

// Write appends one packet frame.
func (sw *StreamWriter) Write(p Packet) error {
	frame, err := appendFrame(sw.buf[:0], p, sw.last, sw.wrote)
	if err != nil {
		return err
	}
	if _, err := sw.bw.Write(frame); err != nil {
		return err
	}
	sw.last, sw.wrote = p.T, true
	return nil
}

// appendFrame checks p against the Trace invariants, given the timestamp
// of the previous frame (wrote reports whether there was one), and
// appends p's frame to b. It is the one encoder behind StreamWriter and
// EncodeStream, so both produce the same bytes and the same errors.
func appendFrame(b []byte, p Packet, last time.Duration, wrote bool) ([]byte, error) {
	if p.T < 0 {
		return b, fmt.Errorf("%w: at %v", ErrNegativeTime, p.T)
	}
	if wrote && p.T < last {
		return b, fmt.Errorf("%w: %v after %v", ErrUnsorted, p.T, last)
	}
	if !p.Dir.Valid() {
		return b, fmt.Errorf("%w: %v", ErrBadDirection, p.Dir)
	}
	if p.Size < 0 {
		return b, fmt.Errorf("%w: %d", ErrNegativeSize, p.Size)
	}
	if int64(p.Size) >= maxStreamSize {
		return b, fmt.Errorf("trace: packet size %d exceeds the stream format limit", p.Size)
	}
	delta := p.T - last
	if !wrote {
		delta = p.T
	}
	b = binary.AppendUvarint(b, uint64(delta))
	return binary.AppendUvarint(b, uint64(p.Size)<<1|uint64(p.Dir&1)), nil
}

// Flush drains buffered frames to the underlying writer.
func (sw *StreamWriter) Flush() error { return sw.bw.Flush() }

// StreamReader decodes the streaming binary format as a Source. Decoded
// packets are validated frame by frame (the delta encoding makes unsorted
// or negative timestamps unrepresentable; sizes are bounded), so a
// StreamReader never yields an invalid packet.
type StreamReader struct {
	br   *bufio.Reader
	last time.Duration
	idx  int
	err  error
	done bool
}

// NewStreamReader checks the magic and returns a Source over the frames.
// Input shorter than the magic reports ErrNotStream (it cannot be a
// stream), so format-sniffing callers can fall through to other codecs
// while genuine frame corruption stays a distinct, loud error.
func NewStreamReader(r io.Reader) (*StreamReader, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: input shorter than the magic", ErrNotStream)
		}
		return nil, fmt.Errorf("trace: reading stream magic: %w", err)
	}
	if magic != streamMagic {
		return nil, ErrNotStream
	}
	return &StreamReader{br: br}, nil
}

// Next implements Source.
func (sr *StreamReader) Next() (Packet, bool, error) {
	if sr.done || sr.err != nil {
		return Packet{}, false, sr.err
	}
	delta, err := binary.ReadUvarint(sr.br)
	if err == io.EOF {
		sr.done = true
		return Packet{}, false, nil
	}
	if err != nil {
		return sr.fail(fmt.Errorf("trace: stream frame %d: reading delta: %w", sr.idx, err))
	}
	sd, err := binary.ReadUvarint(sr.br)
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return sr.fail(fmt.Errorf("trace: stream frame %d: reading size: %w", sr.idx, err))
	}
	if delta > uint64(math.MaxInt64)-uint64(sr.last) {
		return sr.fail(fmt.Errorf("trace: stream frame %d: timestamp overflow", sr.idx))
	}
	size := sd >> 1
	if size >= uint64(maxStreamSize) {
		return sr.fail(fmt.Errorf("trace: stream frame %d: implausible size %d", sr.idx, size))
	}
	sr.last += time.Duration(delta)
	p := Packet{T: sr.last, Dir: Direction(sd & 1), Size: int(size)}
	sr.idx++
	return p, true, nil
}

func (sr *StreamReader) fail(err error) (Packet, bool, error) {
	sr.err = err
	return Packet{}, false, err
}

// WriteStream writes a materialized trace in the streaming binary format.
func WriteStream(w io.Writer, tr Trace) error {
	sw, err := NewStreamWriter(w)
	if err != nil {
		return err
	}
	for _, p := range tr {
		if err := sw.Write(p); err != nil {
			return err
		}
	}
	return sw.Flush()
}

// ReadStream materializes a streaming binary trace. The result is valid by
// construction (see StreamReader).
func ReadStream(r io.Reader) (Trace, error) {
	sr, err := NewStreamReader(r)
	if err != nil {
		return nil, err
	}
	return Collect(sr)
}
