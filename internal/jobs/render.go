package jobs

import (
	"sync"

	"repro/internal/fleet"
	"repro/internal/report"
)

// CellResult is one finished grid cell: its axis labels, its fleet
// summary, and its rendered forms. Renderings are produced lazily, at most
// once per cell (the accessors memoize under sync.Once) — the cell cache
// shares the CellResult across overlapping grids, so whoever renders
// first renders for everyone, and a cell's JSON is byte-identical to the
// flat JSON of the equivalent single-axis job, because both are
// report.JSON(SummaryStatsOf) over the same deterministic summary.
// Laziness matters at sweep scale: a 10k-cell grid that is only ever read
// as CSV (or never read at all) skips 10k JSON marshals entirely.
type CellResult struct {
	// Scheme, Profile, Cohort are the cell's axis labels.
	Scheme, Profile, Cohort string
	// Key is the cell's deterministic identity (the per-cell restriction
	// of the v4 fingerprint) — the cell cache key, the store filename,
	// and the handle GET /v1/cells/{fingerprint} looks cells up by.
	Key string
	// Summary is the cell's fleet aggregate.
	Summary *fleet.Summary

	statsOnce sync.Once
	stats     report.SummaryStats
	jsonOnce  sync.Once
	json      []byte
	jsonErr   error

	// shards/jobs are the cell's progress contribution, replayed when the
	// cell is served from the cell cache.
	shards, jobs int
}

// newCellResult wraps one cell's summary; rendering is deferred to the
// accessors.
func newCellResult(cell gridCell, sum *fleet.Summary) *CellResult {
	return &CellResult{
		Scheme: cell.Scheme, Profile: cell.Profile, Cohort: cell.Cohort,
		Key:     cell.Key,
		Summary: sum,
		shards:  cell.Shards, jobs: cell.NumJobs,
	}
}

// Stats returns the serializable view of Summary. It does not render the
// cell's JSON: a grid's job rendering reads every cell's stats, and the
// cell's own bytes are only needed when the cell is served or stored.
func (c *CellResult) Stats() report.SummaryStats {
	c.statsOnce.Do(func() { c.stats = report.SummaryStatsOf(c.Summary) })
	return c.stats
}

// JSON returns the indented JSON rendering of Stats. The returned bytes
// are memoized and shared; callers must treat them as immutable.
func (c *CellResult) JSON() ([]byte, error) {
	c.jsonOnce.Do(func() { c.json, c.jsonErr = report.JSON(c.Stats()) })
	return c.json, c.jsonErr
}

// Result is a finished job's output. Its rendered forms (JSON, CSV, text)
// are rendered from the cells on every call, not memoized: a finished job
// stays in the registry and the result cache long after its one read, and
// holding its rendered bytes (hundreds of KB for a wide grid) would make
// every retained job cost that much live heap. Rendering is a pure
// function of the cells, so every call returns the same bytes. All stats
// shapes live in internal/report so the HTTP service and the CLIs render
// fleet summaries through one implementation.
//
// Single-axis jobs (one profile, one cohort) render flat: one summary
// merged across the scheme sweep, keyed by scheme label. Wider grids
// render per cell (Cells carries every cell either way), because a scheme
// label legitimately repeats across profile/cohort cells and a flat merge
// would conflate them.
type Result struct {
	// Summary is the merged fleet aggregate (single-axis jobs only; nil
	// for wider grids — the axis shape selects every rendering below).
	Summary *fleet.Summary
	// Cells lists every cell's result in execution order (cohort-major,
	// then profile, then scheme).
	Cells []*CellResult
	// Progress is the terminal progress count, replayed to late watchers.
	Progress Progress
}

// newResult wraps a finished job's cells (plus, for single-axis jobs, the
// label-keyed merge of every cell summary); rendering is deferred to the
// accessors.
func newResult(cells []*CellResult, combined *fleet.Summary) *Result {
	return &Result{Summary: combined, Cells: cells}
}

// Stats returns the flat serializable view (single-axis jobs only; the
// zero value for wider grids, which render through Grid).
func (r *Result) Stats() report.SummaryStats {
	if r.Summary == nil {
		return report.SummaryStats{}
	}
	return report.SummaryStatsOf(r.Summary)
}

// Grid returns the per-cell serializable view (nil for single-axis jobs,
// which render flat).
func (r *Result) Grid() *report.GridStats {
	if r.Summary != nil {
		return nil
	}
	grid := &report.GridStats{Cells: make([]report.GridCellStats, 0, len(r.Cells))}
	for _, c := range r.Cells {
		grid.Cells = append(grid.Cells, report.GridCellStats{
			Scheme: c.Scheme, Profile: c.Profile, Cohort: c.Cohort,
			Fingerprint: c.Key, Summary: c.Stats(),
		})
	}
	return grid
}

// gridCells adapts the cells for the table renderer.
func (r *Result) gridCells() []report.GridCell {
	gcells := make([]report.GridCell, 0, len(r.Cells))
	for _, c := range r.Cells {
		gcells = append(gcells, report.GridCell{
			Scheme: c.Scheme, Profile: c.Profile, Cohort: c.Cohort, Summary: c.Summary,
		})
	}
	return gcells
}

// JSON returns the indented JSON rendering: flat SummaryStats for
// single-axis jobs, GridStats for wider grids.
func (r *Result) JSON() ([]byte, error) {
	if r.Summary != nil {
		return report.JSON(r.Stats())
	}
	return report.JSON(r.Grid())
}

// CSV returns the tabular rendering (per-scheme rows, or per-cell rows
// with axis columns for grids).
func (r *Result) CSV() ([]byte, error) {
	if r.Summary != nil {
		return report.SummaryTable(r.Summary).CSVBytes()
	}
	return report.GridTable(r.gridCells()).CSVBytes()
}

// Text returns the human-readable summary.
func (r *Result) Text() string {
	if r.Summary != nil {
		return r.Summary.String()
	}
	return report.GridTable(r.gridCells()).String()
}
