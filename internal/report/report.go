// Package report renders simulation output for its consumers: fixed-width
// text tables and simple data series for cmd/experiments (rows correspond
// one-to-one with the paper's figures and tables), CSV for plotting tools,
// and deterministic JSON for the simulation service — the same value always
// serializes to the same bytes, which is what lets the job cache return
// byte-identical responses.
package report

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Table is a simple fixed-width text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Headers))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.Rows = append(t.Rows, row)
}

// AddRowf appends a row of formatted values: each argument is rendered with
// %v unless it is a float64, which is rendered with %.2f.
func (t *Table) AddRowf(cells ...interface{}) {
	row := make([]string, 0, len(cells))
	for _, c := range cells {
		switch v := c.(type) {
		case float64:
			row = append(row, fmt.Sprintf("%.2f", v))
		case string:
			row = append(row, v)
		default:
			row = append(row, fmt.Sprint(v))
		}
	}
	t.AddRow(row...)
}

// WriteTo renders the table. It implements io.WriterTo.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title)
		sb.WriteByte('\n')
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(pad(c, widths[i]))
		}
		sb.WriteByte('\n')
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	n, err := io.WriteString(w, sb.String())
	return int64(n), err
}

// String renders the table to a string.
func (t *Table) String() string {
	var sb strings.Builder
	if _, err := t.WriteTo(&sb); err != nil {
		// strings.Builder never errors; keep the method total anyway.
		return err.Error()
	}
	return sb.String()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// WriteCSV renders the table as RFC-4180-style CSV (header row first),
// for feeding rows into plotting tools.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Headers); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if err := cw.Write(r); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// JSON renders v as indented JSON with a trailing newline. The encoding is
// deterministic — encoding/json sorts map keys — so equal values produce
// byte-identical output, the property the simulation service's result
// cache relies on.
func JSON(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	// MarshalIndent's buffer carries up to twice the rendering's length in
	// spare capacity; callers memoize these bytes for as long as they keep
	// the result, so hand back an exact-size copy.
	out := make([]byte, len(b)+1)
	copy(out, b)
	out[len(b)] = '\n'
	return out, nil
}

// CSVBytes renders the table via WriteCSV into a byte slice.
func (t *Table) CSVBytes() ([]byte, error) {
	var sb strings.Builder
	if err := t.WriteCSV(&sb); err != nil {
		return nil, err
	}
	return []byte(sb.String()), nil
}

// Series is a labelled (x, y) data series, the textual analogue of one
// curve in a paper figure.
type Series struct {
	Name   string
	XLabel string
	YLabel string
	X      []float64
	Y      []float64
}

// Add appends one point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// WriteTo renders the series as aligned x/y columns.
func (s *Series) WriteTo(w io.Writer) (int64, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# %s\n", s.Name)
	fmt.Fprintf(&sb, "# %s\t%s\n", s.XLabel, s.YLabel)
	for i := range s.X {
		fmt.Fprintf(&sb, "%g\t%g\n", s.X[i], s.Y[i])
	}
	n, err := io.WriteString(w, sb.String())
	return int64(n), err
}

// String renders the series to a string.
func (s *Series) String() string {
	var sb strings.Builder
	if _, err := s.WriteTo(&sb); err != nil {
		return err.Error()
	}
	return sb.String()
}
