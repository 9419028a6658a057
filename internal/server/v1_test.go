package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/jobs"
	"repro/internal/policy"
)

// TestLegacyRootRoutesGone: the job API lives only under /v1 — every
// pre-versioning root route answers 404 (and registers no job), while the
// same request under /v1 is served.
func TestLegacyRootRoutesGone(t *testing.T) {
	ts, m := newTestServer(t)
	st, code := postJob(t, ts, testSpecJSON(31))
	if code != http.StatusAccepted {
		t.Fatalf("/v1 submit returned %d", code)
	}
	waitDone(t, m, st.ID)
	for _, r := range []struct{ method, path string }{
		{http.MethodPost, "/jobs"},
		{http.MethodGet, "/jobs"},
		{http.MethodGet, "/jobs/" + st.ID},
		{http.MethodDelete, "/jobs/" + st.ID},
		{http.MethodGet, "/jobs/" + st.ID + "/result"},
		{http.MethodGet, "/jobs/" + st.ID + "/stream"},
	} {
		var body io.Reader
		if r.method == http.MethodPost {
			body = strings.NewReader(testSpecJSON(32))
		}
		req, err := http.NewRequest(r.method, ts.URL+r.path, body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s returned %d, want 404", r.method, r.path, resp.StatusCode)
		}
		if r.method == http.MethodGet {
			if _, code := getBody(t, ts.URL+"/v1"+r.path); code != http.StatusOK {
				t.Errorf("GET /v1%s returned %d, want 200", r.path, code)
			}
		}
	}
	if n := m.Len(); n != 1 {
		t.Fatalf("manager holds %d jobs, want only the /v1 submission", n)
	}
}

// TestPoliciesEndpointMatchesRegistry is the guard: GET /v1/policies must
// stay in lockstep with the policy registry — every registered schema
// present under its role, every alias attributed, every parameter carrying
// a kind and a default. A policy registered without a schema cannot exist
// (the registry rejects it), and one missing from the discovery payload
// fails here.
func TestPoliciesEndpointMatchesRegistry(t *testing.T) {
	ts, _ := newTestServer(t)
	body, code := getBody(t, ts.URL+"/v1/policies")
	if code != http.StatusOK {
		t.Fatalf("/v1/policies returned %d", code)
	}
	var catalog PolicyCatalog
	if err := json.Unmarshal(body, &catalog); err != nil {
		t.Fatal(err)
	}
	reg := policy.Default()
	for _, role := range []struct {
		role policy.Role
		got  []policy.SchemaInfo
	}{
		{policy.RoleDemote, catalog.Demote},
		{policy.RoleActive, catalog.Active},
	} {
		schemas := reg.Schemas(role.role)
		if len(role.got) != len(schemas) {
			t.Fatalf("%s: endpoint lists %d policies, registry has %d",
				role.role, len(role.got), len(schemas))
		}
		listed := map[string]policy.SchemaInfo{}
		var aliases []string
		for _, info := range role.got {
			listed[info.Name] = info
			aliases = append(aliases, info.Aliases...)
		}
		for _, s := range schemas {
			info, ok := listed[s.Name]
			if !ok {
				t.Fatalf("%s %q registered but not listed", role.role, s.Name)
			}
			if len(info.Params) != len(s.Params) {
				t.Fatalf("%s %q: %d params listed, schema has %d",
					role.role, s.Name, len(info.Params), len(s.Params))
			}
			for _, p := range info.Params {
				if p.Kind == "" || p.Default == "" {
					t.Fatalf("%s %q parameter %q missing kind or default", role.role, s.Name, p.Name)
				}
			}
			if info.TraceFitted != s.TraceFitted || info.GapLookahead != s.GapLookahead {
				t.Fatalf("%s %q capabilities drifted", role.role, s.Name)
			}
		}
		want := reg.Aliases(role.role)
		if len(aliases) != len(want) {
			t.Fatalf("%s: endpoint lists aliases %v, registry has %v", role.role, aliases, want)
		}
	}
}

// TestSweepMatchesSeparateJobs is the acceptance criterion: one POST
// /v1/jobs sweeping three parameterized fixedtail schemes returns
// per-scheme summaries byte-identical to three separate single-scheme
// jobs on the same seed.
func TestSweepMatchesSeparateJobs(t *testing.T) {
	ts, m := newTestServer(t)
	cohort := `"seed": 51, "shards": 4, "profiles": [{"name": "Verizon 3G"}],
		"cohorts": [{"name": "study-3g", "params": {"users": 4, "duration": "15m"}}]`
	schemes := []string{
		`{"policy": {"name": "fixedtail", "params": {"wait": "2s"}}}`,
		`{"policy": {"name": "fixedtail"}}`,
		`{"policy": {"name": "fixedtail", "params": {"wait": "8s"}}}`,
	}
	type result struct {
		Schemes map[string]json.RawMessage `json:"schemes"`
	}
	fetchSchemes := func(body string) map[string]json.RawMessage {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st jobs.Status
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			t.Fatalf("submit %s returned %d", body, resp.StatusCode)
		}
		waitDone(t, m, st.ID)
		raw, code := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/result")
		if code != http.StatusOK {
			t.Fatalf("result returned %d: %s", code, raw)
		}
		var r result
		if err := json.Unmarshal(raw, &r); err != nil {
			t.Fatal(err)
		}
		return r.Schemes
	}

	separate := map[string]json.RawMessage{}
	for _, s := range schemes {
		got := fetchSchemes(fmt.Sprintf(`{%s, "schemes": [%s]}`, cohort, s))
		if len(got) != 1 {
			t.Fatalf("single-scheme job returned %d schemes", len(got))
		}
		for label, stats := range got {
			separate[label] = stats
		}
	}
	sweep := fetchSchemes(fmt.Sprintf(`{%s, "schemes": [%s]}`, cohort, strings.Join(schemes, ", ")))
	if len(sweep) != len(schemes) {
		t.Fatalf("sweep returned %d schemes, want %d", len(sweep), len(schemes))
	}
	for label, stats := range sweep {
		want, ok := separate[label]
		if !ok {
			t.Fatalf("sweep scheme %q has no separate-job counterpart (have %v)",
				label, keysOf(separate))
		}
		if !bytes.Equal(stats, want) {
			t.Fatalf("scheme %q: sweep summary differs from the separate job:\n%s\nvs\n%s",
				label, stats, want)
		}
	}
}

// TestLegacyFlatPayloadOnV1: the pre-grid flat fields are not part of
// the spec — each is rejected with a 400 naming it and registers no job —
// while the flat policy name lives on as a registry alias: the list-form
// alias and its canonical spec share a fingerprint, so the second
// submission is a cache hit with byte-identical results.
func TestLegacyFlatPayloadOnV1(t *testing.T) {
	ts, m := newTestServer(t)
	for field, body := range map[string]string{
		"users":    `{"users": 3, "seed": 1}`,
		"duration": `{"seed": 1, "duration": "10m"}`,
		"diurnal":  `{"seed": 1, "diurnal": false}`,
		"profile":  `{"seed": 1, "profile": "Verizon LTE"}`,
		"policy":   `{"seed": 1, "policy": "4.5s"}`,
		"active":   `{"seed": 1, "active": "learn"}`,
	} {
		code, msg := postError(t, ts, body)
		if code != http.StatusBadRequest || !strings.Contains(msg, `"`+field+`"`) {
			t.Errorf("flat %s payload: %d %q, want 400 naming %q", field, code, msg, field)
		}
	}
	if n := m.Len(); n != 0 {
		t.Fatalf("rejected payloads registered %d jobs", n)
	}

	alias, code := postJob(t, ts, strings.Replace(testSpecJSON(52),
		`{"policy": {"name": "makeidle"}}`, `{"label": "4.5s", "policy": {"name": "4.5s"}}`, 1))
	if code != http.StatusAccepted {
		t.Fatalf("alias submit returned %d", code)
	}
	waitDone(t, m, alias.ID)
	speced, code := postJob(t, ts, strings.Replace(testSpecJSON(52), `{"policy": {"name": "makeidle"}}`,
		`{"label": "4.5s", "policy": {"name": "fixedtail", "params": {"wait": 4500000000}}}`, 1))
	if code != http.StatusOK {
		t.Fatalf("canonical submit returned %d, want 200 (cache hit)", code)
	}
	if !speced.CacheHit || speced.Fingerprint != alias.Fingerprint {
		t.Fatalf("canonical form did not hit the alias form's cache entry: %+v", speced)
	}
}

func keysOf(m map[string]json.RawMessage) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
