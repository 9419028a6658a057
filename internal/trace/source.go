package trace

import (
	"fmt"
	"time"
)

// Source is a pull-based packet iterator: the streaming counterpart of a
// materialized Trace. Next returns the next packet in timestamp order, then
// ok=false at end of stream. A non-nil error ends the stream (decoders
// surface malformed input this way); once Next has returned ok=false or an
// error, further calls must keep doing so.
//
// Everything downstream of a Source — the replay engine, the fleet workers,
// the codec writers — pulls packets one at a time, so a cohort's memory
// footprint is bounded by burst structure, never by trace length.
type Source interface {
	Next() (p Packet, ok bool, err error)
}

// SliceSource adapts a materialized Trace to the Source interface. The
// zero value is an empty source; Reset repoints it at a trace without
// allocating, which is how the replay engine reuses one across runs.
type SliceSource struct {
	tr Trace
	i  int
}

// Source returns a fresh Source reading the trace from the beginning.
func (tr Trace) Source() *SliceSource { return &SliceSource{tr: tr} }

// Reset repoints the source at tr and rewinds it.
func (s *SliceSource) Reset(tr Trace) { s.tr, s.i = tr, 0 }

// Next implements Source.
func (s *SliceSource) Next() (Packet, bool, error) {
	if s.i >= len(s.tr) {
		return Packet{}, false, nil
	}
	p := s.tr[s.i]
	s.i++
	return p, true, nil
}

// Collect drains a source into a materialized Trace. It is the inverse of
// Trace.Source and the bridge from any streaming decoder or generator to
// code that still wants a slice. The result is not validated; run
// Trace.Validate if the source is untrusted.
func Collect(src Source) (Trace, error) {
	tr, err := AppendSource(nil, src)
	if err != nil {
		return nil, err
	}
	return tr, nil
}

// AppendSource drains src, appending its packets to dst, and returns the
// extended slice. On error it also returns what it appended so far, so a
// caller reusing dst as scratch keeps its capacity.
func AppendSource(dst Trace, src Source) (Trace, error) {
	for {
		p, ok, err := src.Next()
		if err != nil {
			return dst, err
		}
		if !ok {
			return dst, nil
		}
		dst = append(dst, p)
	}
}

// CopySource pipes every packet of src into w (any streaming consumer
// with a Write method, e.g. a StreamWriter) and reports the packet count
// plus the last packet's timestamp — the stream's span.
func CopySource(w interface{ Write(Packet) error }, src Source) (n int, span time.Duration, err error) {
	for {
		p, ok, err := src.Next()
		if err != nil {
			return n, span, err
		}
		if !ok {
			return n, span, nil
		}
		if err := w.Write(p); err != nil {
			return n, span, fmt.Errorf("trace: copying packet %d: %w", n, err)
		}
		n++
		span = p.T
	}
}
