package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/jobs"
)

func newTestServer(t *testing.T) (*httptest.Server, *jobs.Manager) {
	t.Helper()
	old := pollInterval
	pollInterval = 5 * time.Millisecond
	m := jobs.NewManager(jobs.Config{})
	ts := httptest.NewServer(New(m))
	t.Cleanup(func() {
		ts.Close()
		m.Close()
		pollInterval = old
	})
	return ts, m
}

func testSpecJSON(seed int64) string { return oneCellJSON(3, seed, "10m", 4) }

// oneCellJSON is a one-cell spec: MakeIdle on Verizon 3G over a study-3g
// cohort of users traces of the given duration.
func oneCellJSON(users int, seed int64, duration string, shards int) string {
	return fmt.Sprintf(`{"seed": %d, "shards": %d,
		"schemes": [{"policy": {"name": "makeidle"}}], "profiles": [{"name": "Verizon 3G"}],
		"cohorts": [{"name": "study-3g", "params": {"users": %d, "duration": %q}}]}`,
		seed, shards, users, duration)
}

func postJob(t *testing.T, ts *httptest.Server, body string) (jobs.Status, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st jobs.Status
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp.StatusCode
}

// postError submits a spec expected to fail and returns the status code
// and the error message of the JSON error body.
func postError(t *testing.T, ts *httptest.Server, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("error body: %v", err)
	}
	return resp.StatusCode, e.Error
}

func getBody(t *testing.T, url string) ([]byte, int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b, resp.StatusCode
}

func waitDone(t *testing.T, m *jobs.Manager, id string) {
	t.Helper()
	j, ok := m.Get(id)
	if !ok {
		t.Fatalf("job %s not registered", id)
	}
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s did not finish", id)
	}
}

// TestSubmitPollResult drives the primary path: submit → 202 queued,
// status polls reach done, result served as JSON, CSV and text.
func TestSubmitPollResult(t *testing.T) {
	ts, m := newTestServer(t)
	st, code := postJob(t, ts, testSpecJSON(21))
	if code != http.StatusAccepted {
		t.Fatalf("submit returned %d", code)
	}
	if st.State != jobs.StateQueued && st.State != jobs.StateRunning {
		t.Fatalf("fresh job in state %s", st.State)
	}
	waitDone(t, m, st.ID)

	body, code := getBody(t, ts.URL+"/v1/jobs/"+st.ID)
	if code != http.StatusOK {
		t.Fatalf("status returned %d: %s", code, body)
	}
	var got jobs.Status
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.State != jobs.StateDone || got.Progress.DoneJobs != 3 {
		t.Fatalf("status after done: %+v", got)
	}

	js, code := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/result")
	if code != http.StatusOK || !json.Valid(js) {
		t.Fatalf("JSON result: code %d, valid=%v", code, json.Valid(js))
	}
	csv, code := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/result?format=csv")
	if code != http.StatusOK || !strings.HasPrefix(string(csv), "scheme,") {
		t.Fatalf("CSV result: code %d, body %q", code, csv)
	}
	text, code := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/result?format=text")
	if code != http.StatusOK || !strings.Contains(string(text), "fleet summary") {
		t.Fatalf("text result: code %d, body %q", code, text)
	}
}

// TestCacheHitIsByteIdenticalOverHTTP is the end-to-end acceptance
// criterion: resubmitting an identical spec returns 200 with cache_hit
// and its result bytes equal the first response's exactly.
func TestCacheHitIsByteIdenticalOverHTTP(t *testing.T) {
	ts, m := newTestServer(t)
	cold, code := postJob(t, ts, testSpecJSON(22))
	if code != http.StatusAccepted {
		t.Fatalf("cold submit returned %d", code)
	}
	waitDone(t, m, cold.ID)
	coldJSON, code := getBody(t, ts.URL+"/v1/jobs/"+cold.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("cold result returned %d", code)
	}

	warm, code := postJob(t, ts, testSpecJSON(22))
	if code != http.StatusOK {
		t.Fatalf("warm submit returned %d, want 200 (cache hit)", code)
	}
	if !warm.CacheHit || warm.State != jobs.StateDone {
		t.Fatalf("warm submission not a completed cache hit: %+v", warm)
	}
	if warm.Fingerprint != cold.Fingerprint {
		t.Fatal("fingerprint changed between identical submissions")
	}
	warmJSON, code := getBody(t, ts.URL+"/v1/jobs/"+warm.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("warm result returned %d", code)
	}
	if !bytes.Equal(coldJSON, warmJSON) {
		t.Fatalf("cache hit not byte-identical:\n%s\nvs\n%s", coldJSON, warmJSON)
	}
}

// TestStreamDeliversProgressAndTerminates reads the NDJSON stream of a
// running job: every line must parse, progress must be monotone, and the
// last line must carry the terminal state.
func TestStreamDeliversProgressAndTerminates(t *testing.T) {
	ts, _ := newTestServer(t)
	st, code := postJob(t, ts, oneCellJSON(4, 23, "10m", 8))
	if code != http.StatusAccepted {
		t.Fatalf("submit returned %d", code)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	var events []StreamEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("empty stream")
	}
	last := events[len(events)-1]
	if last.State != jobs.StateDone {
		t.Fatalf("stream ended in state %s", last.State)
	}
	if last.Progress.DoneJobs != 4 {
		t.Fatalf("final progress %+v", last.Progress)
	}
	for i := 1; i < len(events); i++ {
		if events[i].Progress.DoneShards < events[i-1].Progress.DoneShards {
			t.Fatalf("progress regressed at event %d: %+v after %+v",
				i, events[i].Progress, events[i-1].Progress)
		}
	}
}

// TestCancelOverHTTP cancels a queued/running job through DELETE and sees
// the canceled state; its result endpoint then answers 410.
func TestCancelOverHTTP(t *testing.T) {
	ts, m := newTestServer(t)
	// A bigger cohort so cancellation lands before completion most runs;
	// either way the lifecycle must stay coherent.
	st, code := postJob(t, ts, oneCellJSON(64, 24, "2h", 64))
	if code != http.StatusAccepted {
		t.Fatalf("submit returned %d", code)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel returned %d", resp.StatusCode)
	}
	waitDone(t, m, st.ID)
	body, _ := getBody(t, ts.URL+"/v1/jobs/"+st.ID)
	var got jobs.Status
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.State != jobs.StateCanceled && got.State != jobs.StateDone {
		t.Fatalf("after cancel: %+v", got)
	}
	if got.State == jobs.StateCanceled {
		if _, code := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/result"); code != http.StatusGone {
			t.Fatalf("result of canceled job returned %d, want 410", code)
		}
	}
}

// TestErrorsAndValidation exercises the failure surfaces: bad specs,
// unknown jobs, unknown formats, result-before-done.
func TestErrorsAndValidation(t *testing.T) {
	ts, m := newTestServer(t)
	// Each empty axis is rejected with an error naming it.
	for _, axis := range []string{"schemes", "profiles", "cohorts"} {
		var spec map[string]any
		if err := json.Unmarshal([]byte(testSpecJSON(25)), &spec); err != nil {
			t.Fatal(err)
		}
		delete(spec, axis)
		body, _ := json.Marshal(spec)
		if code, msg := postError(t, ts, string(body)); code != http.StatusBadRequest || !strings.Contains(msg, axis) {
			t.Errorf("spec without %s: %d %q, want 400 naming the axis", axis, code, msg)
		}
	}
	// Cohort schema bounds: users <= 1,000,000 and duration <= 30 days.
	for _, bad := range []string{`"users": 1000001`, `"users": 1, "duration": "744h"`} {
		body := strings.Replace(testSpecJSON(25), `"users": 3, "duration": "10m"`, bad, 1)
		if code, msg := postError(t, ts, body); code != http.StatusBadRequest {
			t.Errorf("cohort {%s}: %d %q, want 400", bad, code, msg)
		}
	}
	for _, body := range []string{
		`{"seed": 1}`,
		strings.Replace(testSpecJSON(25), `"Verizon 3G"`, `"Nokia 1G"`, 1),
		strings.Replace(testSpecJSON(25), `"makeidle"`, `"warp-speed"`, 1),
		strings.Replace(testSpecJSON(25), `"seed"`, `"bogus_field": 1, "seed"`, 1),
		`not json at all`,
	} {
		if _, code := postJob(t, ts, body); code != http.StatusBadRequest {
			t.Fatalf("spec %q returned %d, want 400", body, code)
		}
	}
	if _, code := getBody(t, ts.URL+"/v1/jobs/job-999999"); code != http.StatusNotFound {
		t.Fatalf("unknown job status returned %d", code)
	}
	if _, code := getBody(t, ts.URL+"/v1/jobs/job-999999/result"); code != http.StatusNotFound {
		t.Fatalf("unknown job result returned %d", code)
	}

	st, code := postJob(t, ts, testSpecJSON(25))
	if code != http.StatusAccepted {
		t.Fatalf("submit returned %d", code)
	}
	waitDone(t, m, st.ID)
	if _, code := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/result?format=yaml"); code != http.StatusBadRequest {
		t.Fatalf("unknown format returned %d", code)
	}

	hb, code := getBody(t, ts.URL+"/healthz")
	if code != http.StatusOK || !strings.Contains(string(hb), `"status"`) {
		t.Fatalf("healthz: %d %s", code, hb)
	}
}

// TestSubmitBodyLimit: a spec body over 1 MiB is cut off with 413 and
// registers no job; the same spec padded to just under the limit is
// served.
func TestSubmitBodyLimit(t *testing.T) {
	ts, m := newTestServer(t)
	// Leading whitespace pads the body to n bytes; the decoder must read
	// through all of it to reach the spec.
	pad := func(n int) string { return strings.Repeat(" ", n-len(testSpecJSON(26))) + testSpecJSON(26) }
	if code, msg := postError(t, ts, pad(maxSpecBytes+1)); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d %q, want 413", code, msg)
	}
	if n := m.Len(); n != 0 {
		t.Fatalf("oversized body registered %d jobs", n)
	}
	if _, code := postJob(t, ts, pad(maxSpecBytes)); code != http.StatusAccepted {
		t.Fatalf("body at the limit returned %d, want 202", code)
	}
}

// TestHealthzTraceCacheGauges pins the trace-cache health gauges: after a
// grid whose cells share a cohort, /healthz must report the cache's
// generations (misses), replays served from slabs (hits) and retained
// bytes — nonzero each — plus the eviction counter, the wait tables built
// (replay_passes) and the slab decodes. A second grid over the same
// users adds the 95% IAT scheme on two profiles, a second plan with one
// table per user, and the fit memo must report one fit per user (misses)
// and its reuse by the other profile and by the tables that replay the
// fitted timer (hits).
func TestHealthzTraceCacheGauges(t *testing.T) {
	ts, m := newTestServer(t)
	spec := `{"seed": 31, "shards": 2,
		"schemes": [{"policy": {"name": "makeidle"}},
		            {"policy": {"name": "fixedtail", "params": {"wait": "2s"}}}],
		"profiles": [{"name": "verizon-3g"}],
		"cohorts": [{"name": "study-3g", "params": {"users": 2, "duration": "2m"}}]}`
	st, code := postJob(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit returned %d", code)
	}
	waitDone(t, m, st.ID)

	hb, code := getBody(t, ts.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz: %d %s", code, hb)
	}
	var health map[string]any
	if err := json.Unmarshal(hb, &health); err != nil {
		t.Fatalf("healthz body: %v\n%s", err, hb)
	}
	num := func(key string) float64 {
		t.Helper()
		v, ok := health[key].(float64)
		if !ok {
			t.Fatalf("healthz missing numeric %q:\n%s", key, hb)
		}
		return v
	}
	// 2 cells × 2 users consult the cache once per job: one generation per
	// user, the rest replay from the retained slabs.
	if got := num("trace_cache_misses"); got != 2 {
		t.Fatalf("trace_cache_misses = %v, want 2 (one generation per user)", got)
	}
	if got := num("trace_cache_hits"); got != 2 {
		t.Fatalf("trace_cache_hits = %v, want 2", got)
	}
	if got := num("trace_cache_bytes"); got <= 0 {
		t.Fatalf("trace_cache_bytes = %v, want > 0", got)
	}
	if got := num("trace_cache_evictions"); got != 0 {
		t.Fatalf("trace_cache_evictions = %v, want 0", got)
	}
	if got, got2 := num("fit_memo_misses"), num("fit_memo_hits"); got != 0 || got2 != 0 {
		t.Fatalf("fit memo = %v misses, %v hits before any trace-fitted scheme ran", got, got2)
	}
	// Whichever cell reaches a user first builds the user's wait table:
	// the baseline and the grid's one constant wait (fixedtail 2s)
	// together, one pass per user, which the fixedtail cell reads.
	firstPasses := num("replay_passes")
	if firstPasses != 2 {
		t.Fatalf("replay_passes = %v, want 2 (one pass per user)", firstPasses)
	}
	// Each pass decodes its user's slab once, and so does each MakeIdle
	// replay, which the memo does not serve.
	if got := num("slab_decodes"); got != 4 {
		t.Fatalf("slab_decodes = %v, want 4 (2 passes + 2 MakeIdle replays)", got)
	}

	spec = `{"seed": 31, "shards": 2,
		"schemes": [{"policy": {"name": "95iat"}}],
		"profiles": [{"name": "verizon-3g"}, {"name": "verizon-lte"}],
		"cohorts": [{"name": "study-3g", "params": {"users": 2, "duration": "2m"}}]}`
	st, code = postJob(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("second submit returned %d", code)
	}
	waitDone(t, m, st.ID)
	if hb, code = getBody(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz: %d %s", code, hb)
	}
	health = nil
	if err := json.Unmarshal(hb, &health); err != nil {
		t.Fatalf("healthz body: %v\n%s", err, hb)
	}
	// Each user's first job builds one table for both profiles of the new
	// plan. 95iat ignores the profile: one fit per user, reused by the
	// user's other profile. Its timer is a wait rule, so every table this
	// grid builds resolves it through the memo too: the 4 jobs and the new
	// tables look the fit up, and all but the 2 fits are hits.
	if got := num("replay_passes") - firstPasses; got != 2 {
		t.Fatalf("replay_passes grew by %v, want 2 (one pass per user for both profiles)", got)
	}
	if got := num("fit_memo_misses"); got != 2 {
		t.Fatalf("fit_memo_misses = %v, want 2 (one fit per user)", got)
	}
	if got, want := num("fit_memo_hits"), 4+num("replay_passes")-firstPasses-2; got != want {
		t.Fatalf("fit_memo_hits = %v, want %v (the second profile and every pass reuse each fit)", got, want)
	}
	// One table, one pass, per (plan, user): the two grids replay the
	// same slabs under two plans. No lookup counter rides along.
	if passes, slabs := num("replay_passes"), num("trace_cache_misses"); passes != 2*slabs {
		t.Fatalf("replay_passes = %v, want one per plan and user (2 x %v)", passes, slabs)
	}
	for _, key := range []string{"baseline_memo_hits", "baseline_memo_misses", "replay_memo_hits", "replay_memo_misses"} {
		if _, ok := health[key]; ok {
			t.Fatalf("healthz still reports %q", key)
		}
	}
}
