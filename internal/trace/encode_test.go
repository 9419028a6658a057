package trace

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"
)

// encodeByWriter is EncodeStream's reference: the packets written one by
// one through a StreamWriter into a buffer, stopping at the first error.
func encodeByWriter(tr Trace) ([]byte, error) {
	var buf bytes.Buffer
	sw, err := NewStreamWriter(&buf)
	if err != nil {
		return nil, err
	}
	for _, p := range tr {
		if err := sw.Write(p); err != nil {
			return nil, err
		}
	}
	if err := sw.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// checkEncodeStream requires EncodeStream over tr (through a SliceSource,
// which passes invalid packets on unchecked) to produce StreamWriter's
// bytes, or its error.
func checkEncodeStream(t *testing.T, label string, tr Trace) {
	t.Helper()
	want, wantErr := encodeByWriter(tr)
	got, err := EncodeStream(tr.Source())
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("%s: EncodeStream error %v, StreamWriter error %v", label, err, wantErr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: EncodeStream bytes differ from StreamWriter's", label)
	}
}

// TestEncodeStreamMatchesStreamWriter covers empty and valid traces,
// equal timestamps, the size limit, and each invalid packet kind at the
// first and a later position.
func TestEncodeStreamMatchesStreamWriter(t *testing.T) {
	valid := Trace{{T: 0, Dir: Out, Size: 0}, {T: 0, Dir: In, Size: 1400}, {T: time.Hour, Dir: Out, Size: int(maxStreamSize - 1)}}
	checkEncodeStream(t, "empty", nil)
	checkEncodeStream(t, "valid", valid)
	for kind, bad := range map[string]Packet{
		"negative-time": {T: -1, Dir: Out, Size: 1},
		"direction":     {T: 2 * time.Hour, Dir: 2, Size: 1},
		"negative-size": {T: 2 * time.Hour, Dir: In, Size: -1},
		"size-limit":    {T: 2 * time.Hour, Dir: In, Size: int(maxStreamSize)},
		"unsorted":      {T: time.Hour - 1, Dir: In, Size: 1},
	} {
		for _, at := range []int{0, 2} {
			tr := append(append(Trace(nil), valid[:at]...), bad)
			tr = append(tr, valid[at:]...)
			checkEncodeStream(t, kind, tr)
		}
	}
}

// FuzzEncodeStream holds EncodeStream to StreamWriter on arbitrary packet
// sequences, valid or not. Each packet takes six bytes: a signed 32-bit
// timestamp step in microseconds (negative steps go back in time), a
// direction byte (values above 1 are invalid) and a size byte (0xff is a
// negative size, 0xfe the format's size limit).
func FuzzEncodeStream(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 10, 0, 5, 0, 0, 0, 0, 1, 9})
	f.Add([]byte{0, 0, 1, 0, 0, 1, 0xff, 0xff, 0xff, 0xf0, 1, 2})
	f.Add([]byte{0, 0, 0, 1, 3, 1, 0, 0, 0, 1, 0, 0xff, 0, 0, 0, 1, 0, 0xfe})
	f.Fuzz(func(t *testing.T, data []byte) {
		var tr Trace
		var at time.Duration
		for k := 0; k+5 < len(data); k += 6 {
			at += time.Duration(int32(binary.BigEndian.Uint32(data[k:]))) * time.Microsecond
			p := Packet{T: at, Dir: Direction(data[k+4]), Size: int(data[k+5]) * 97}
			switch data[k+5] {
			case 0xff:
				p.Size = -1
			case 0xfe:
				p.Size = int(maxStreamSize)
			}
			tr = append(tr, p)
		}
		checkEncodeStream(t, "fuzz", tr)
	})
}
