package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/jobs"
	"repro/internal/power"
	"repro/internal/report"
	"repro/internal/spec"
	"repro/internal/workload"
)

// The grid acceptance axes: 2 schemes × 2 profiles × 2 cohorts = 8 cells.
// Populations are tiny so the whole grid replays in well under a second.
var (
	gridSchemes = []string{
		`{"policy": {"name": "fixedtail", "params": {"wait": "2s"}}}`,
		`{"policy": {"name": "makeidle"}}`,
	}
	gridProfiles = []string{
		`{"name": "verizon-3g"}`,
		`{"name": "verizon-lte", "params": {"t1": "5s"}}`,
	}
	gridCohorts = []string{
		`{"name": "study-3g", "params": {"users": 3, "duration": "10m"}}`,
		`{"name": "mix", "params": {"users": 2, "duration": "10m", "im": 2, "email": 1}}`,
	}
)

// gridServer pairs a test server with its manager for the grid helpers.
type gridServer struct {
	srv *httptest.Server
	m   *jobs.Manager
}

func newGridServer(t *testing.T) *gridServer {
	t.Helper()
	srv, m := newTestServer(t)
	return &gridServer{srv: srv, m: m}
}

func submitAndWait(t *testing.T, ts *gridServer, body string) string {
	t.Helper()
	resp, err := http.Post(ts.srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statusShim
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit %s returned %d: %+v", body, resp.StatusCode, st)
	}
	waitDone(t, ts.m, st.ID)
	return st.ID
}

// TestGridCellsMatchSingleAxisJobs is the acceptance criterion: a
// 2×2×2 grid job produces 8 cell summaries, each byte-identical to the
// corresponding single-axis job run on a *separate* service instance (so
// no cache can couple the two computations).
func TestGridCellsMatchSingleAxisJobs(t *testing.T) {
	gridSrv := newGridServer(t)
	singleSrv := newGridServer(t)

	common := `"seed": 61, "shards": 4`
	gridBody := fmt.Sprintf(`{%s, "schemes": [%s], "profiles": [%s], "cohorts": [%s]}`,
		common,
		strings.Join(gridSchemes, ", "),
		strings.Join(gridProfiles, ", "),
		strings.Join(gridCohorts, ", "))
	gridID := submitAndWait(t, gridSrv, gridBody)

	raw, code := getBody(t, gridSrv.srv.URL+"/v1/jobs/"+gridID+"/result")
	if code != http.StatusOK {
		t.Fatalf("grid result returned %d: %s", code, raw)
	}
	var grid report.GridStats
	if err := json.Unmarshal(raw, &grid); err != nil {
		t.Fatal(err)
	}
	if len(grid.Cells) != 8 {
		t.Fatalf("grid returned %d cells, want 8", len(grid.Cells))
	}

	// Cells execute cohort-major, then profile, then scheme.
	i := 0
	for _, cohort := range gridCohorts {
		for _, profile := range gridProfiles {
			for _, scheme := range gridSchemes {
				cellBytes, code := getBody(t,
					fmt.Sprintf("%s/v1/jobs/%s/result?cell=%d", gridSrv.srv.URL, gridID, i))
				if code != http.StatusOK {
					t.Fatalf("cell %d returned %d", i, code)
				}
				singleBody := fmt.Sprintf(
					`{%s, "schemes": [%s], "profiles": [%s], "cohorts": [%s]}`,
					common, scheme, profile, cohort)
				singleID := submitAndWait(t, singleSrv, singleBody)
				singleBytes, code := getBody(t, singleSrv.srv.URL+"/v1/jobs/"+singleID+"/result")
				if code != http.StatusOK {
					t.Fatalf("single job %d returned %d: %s", i, code, singleBytes)
				}
				if !bytes.Equal(cellBytes, singleBytes) {
					t.Fatalf("cell %d (scheme %s, profile %s, cohort %s) differs from its single-axis job:\n%s\nvs\n%s",
						i, scheme, profile, cohort, cellBytes, singleBytes)
				}
				// The grid's embedded cell stats agree with the verbatim bytes.
				var cellStats report.SummaryStats
				if err := json.Unmarshal(cellBytes, &cellStats); err != nil {
					t.Fatal(err)
				}
				if cellStats.Jobs != grid.Cells[i].Summary.Jobs {
					t.Fatalf("cell %d: embedded stats disagree with ?cell bytes", i)
				}
				i++
			}
		}
	}
}

// TestGridReusesCachedCells: a grid overlapping earlier single-axis jobs
// replays only its novel cells — the overlapping cells are served from
// the cell cache with byte-identical renderings.
func TestGridReusesCachedCells(t *testing.T) {
	ts := newGridServer(t)
	common := `"seed": 62, "shards": 4`
	scheme := gridSchemes[0]
	profile := gridProfiles[0]
	cohort := gridCohorts[0]

	singleID := submitAndWait(t, ts,
		fmt.Sprintf(`{%s, "schemes": [%s], "profiles": [%s], "cohorts": [%s]}`,
			common, scheme, profile, cohort))
	singleBytes, _ := getBody(t, ts.srv.URL+"/v1/jobs/"+singleID+"/result?cell=0")

	hb, _ := getBody(t, ts.srv.URL+"/healthz")
	var health struct {
		CellCacheLen int `json:"cell_cache_len"`
	}
	if err := json.Unmarshal(hb, &health); err != nil {
		t.Fatal(err)
	}
	if health.CellCacheLen != 1 {
		t.Fatalf("cell cache holds %d entries after one single-cell job, want 1", health.CellCacheLen)
	}

	gridID := submitAndWait(t, ts,
		fmt.Sprintf(`{%s, "schemes": [%s, %s], "profiles": [%s], "cohorts": [%s]}`,
			common, scheme, gridSchemes[1], profile, cohort))
	cellBytes, _ := getBody(t, ts.srv.URL+"/v1/jobs/"+gridID+"/result?cell=0")
	if !bytes.Equal(singleBytes, cellBytes) {
		t.Fatal("cached cell bytes differ from the original run's")
	}
}

// TestProfilesEndpointMatchesRegistry is the guard: GET /v1/profiles must
// stay in lockstep with the profile registry — every registered carrier
// schema present with its full parameter schema, every display-name alias
// attributed.
func TestProfilesEndpointMatchesRegistry(t *testing.T) {
	ts, _ := newTestServer(t)
	body, code := getBody(t, ts.URL+"/v1/profiles")
	if code != http.StatusOK {
		t.Fatalf("/v1/profiles returned %d", code)
	}
	var catalog ProfileCatalog
	if err := json.Unmarshal(body, &catalog); err != nil {
		t.Fatal(err)
	}
	assertCatalogMatches(t, "profile", catalog.Profiles,
		power.Default().Schemas(), power.Default().Aliases())
}

// TestWorkloadsEndpointMatchesRegistry is the guard for GET /v1/workloads
// against the cohort registry.
func TestWorkloadsEndpointMatchesRegistry(t *testing.T) {
	ts, _ := newTestServer(t)
	body, code := getBody(t, ts.URL+"/v1/workloads")
	if code != http.StatusOK {
		t.Fatalf("/v1/workloads returned %d", code)
	}
	var catalog WorkloadCatalog
	if err := json.Unmarshal(body, &catalog); err != nil {
		t.Fatal(err)
	}
	assertCatalogMatches(t, "cohort", catalog.Cohorts,
		workload.Cohorts().Schemas(), workload.Cohorts().Aliases())
}

// assertCatalogMatches checks a discovery payload lists exactly the
// registry's schemas — same parameter counts, kinds and defaults — and
// exactly its aliases.
func assertCatalogMatches(t *testing.T, noun string, got []spec.SchemaInfo, schemas []*spec.Schema, wantAliases []string) {
	t.Helper()
	if len(got) != len(schemas) {
		t.Fatalf("endpoint lists %d %ss, registry has %d", len(got), noun, len(schemas))
	}
	listed := map[string]spec.SchemaInfo{}
	var aliases []string
	for _, info := range got {
		listed[info.Name] = info
		aliases = append(aliases, info.Aliases...)
	}
	for _, s := range schemas {
		info, ok := listed[s.Name]
		if !ok {
			t.Fatalf("%s %q registered but not listed", noun, s.Name)
		}
		if len(info.Params) != len(s.Params) {
			t.Fatalf("%s %q: %d params listed, schema has %d", noun, s.Name, len(info.Params), len(s.Params))
		}
		for i, p := range info.Params {
			if p.Kind == "" || p.Default == "" {
				t.Fatalf("%s %q parameter %q missing kind or default", noun, s.Name, p.Name)
			}
			if p.Name != s.Params[i].Name {
				t.Fatalf("%s %q parameter order drifted: %q vs %q", noun, s.Name, p.Name, s.Params[i].Name)
			}
		}
	}
	if len(aliases) != len(wantAliases) {
		t.Fatalf("endpoint lists aliases %v, registry has %v", aliases, wantAliases)
	}
}

// TestLegacyAxisPayloadsShareFingerprints: a profile axis value spelled
// with its Table 2 display name (a registry alias) and the same value
// spelled canonically share a fingerprint, so the second submission is a
// cache hit with byte-identical results (the profile analogue of the
// scheme alias in TestLegacyFlatPayloadOnV1).
func TestLegacyAxisPayloadsShareFingerprints(t *testing.T) {
	ts, m := newTestServer(t)
	cohorts := `"cohorts": [{"name": "study-3g", "params": {"users": 3, "duration": "10m"}}]`
	display, code := postJob(t, ts, `{"seed": 63, "shards": 4,
		"schemes": [{"policy": {"name": "makeidle"}}],
		"profiles": [{"label": "Verizon LTE", "name": "Verizon LTE"}], `+cohorts+`}`)
	if code != http.StatusAccepted {
		t.Fatalf("display-name submit returned %d", code)
	}
	waitDone(t, m, display.ID)
	canonical, code := postJob(t, ts, `{"seed": 63, "shards": 4,
		"schemes": [{"policy": {"name": "makeidle"}}],
		"profiles": [{"label": "Verizon LTE", "name": "verizon-lte"}], `+cohorts+`}`)
	if code != http.StatusOK {
		t.Fatalf("canonical submit returned %d, want 200 (cache hit)", code)
	}
	if !canonical.CacheHit || canonical.Fingerprint != display.Fingerprint {
		t.Fatalf("canonical profile did not hit the display-name form's cache entry: %+v", canonical)
	}
}

// statusShim decodes just what submitAndWait needs.
type statusShim struct {
	ID string `json:"id"`
}
