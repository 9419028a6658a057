package main

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"testing"
	"time"
)

// startDaemon boots run() on an ephemeral port and returns its base URL
// plus the channel run's error lands on.
func startDaemon(t *testing.T, ctx context.Context, args []string) (string, <-chan error) {
	t.Helper()
	ready := make(chan string, 1)
	errCh := make(chan error, 1)
	go func() { errCh <- run(ctx, args, ready) }()
	select {
	case addr := <-ready:
		return "http://" + addr, errCh
	case err := <-errCh:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}
	return "", nil
}

func get(t *testing.T, url string) ([]byte, int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b, resp.StatusCode
}

// TestDaemonSmoke starts the daemon on an ephemeral port, hits /healthz
// and the /v1 discovery endpoints, runs one tiny job end to end, and
// verifies graceful shutdown when the context cancels.
func TestDaemonSmoke(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	base, errCh := startDaemon(t, ctx, []string{"-addr", "127.0.0.1:0", "-runners", "1"})

	hb, code := get(t, base+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz returned %d: %s", code, hb)
	}
	var health struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(hb, &health); err != nil || health.Status != "ok" {
		t.Fatalf("bad health payload %s (err %v)", hb, err)
	}
	for _, path := range []string{"/v1/policies", "/v1/profiles", "/v1/workloads"} {
		body, code := get(t, base+path)
		if code != http.StatusOK || !json.Valid(body) {
			t.Fatalf("%s returned %d (valid JSON %v)", path, code, json.Valid(body))
		}
	}

	resp, err := http.Post(base+"/v1/jobs", "application/json",
		strings.NewReader(`{"seed": 9, "shards": 2,
			"schemes": [{"policy": {"name": "makeidle"}}], "profiles": [{"name": "verizon-3g"}],
			"cohorts": [{"name": "study-3g", "params": {"users": 2, "duration": "5m"}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit returned %d", resp.StatusCode)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		body, _ := get(t, base+"/v1/jobs/"+st.ID)
		var got struct {
			State string `json:"state"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		if got.State == "done" {
			break
		}
		if got.State == "failed" || got.State == "canceled" {
			t.Fatalf("job ended %s: %s", got.State, body)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", got.State)
		}
		time.Sleep(10 * time.Millisecond)
	}

	cancel()
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("shutdown returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not shut down after context cancel")
	}
}

// TestDaemonSIGTERM verifies the production signal path: a SIGTERM
// delivered to the process cancels the daemon's NotifyContext and run
// returns cleanly.
func TestDaemonSIGTERM(t *testing.T) {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()
	base, errCh := startDaemon(t, ctx, []string{"-addr", "127.0.0.1:0"})
	if _, code := get(t, base+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz returned %d", code)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("shutdown returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not shut down on SIGTERM")
	}
	// The listener must be gone after shutdown.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("daemon still serving after SIGTERM shutdown")
	}
}

// TestDaemonPprofFlag: -pprof serves the profiling endpoints on its own
// listener, and the API listener never exposes them.
func TestDaemonPprofFlag(t *testing.T) {
	// Reserve a free port for the pprof listener. Closing it before the
	// daemon boots is a small race, but the port was free moments ago and
	// the test fails loudly if it was snatched.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pprofAddr := ln.Addr().String()
	ln.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	base, errCh := startDaemon(t, ctx,
		[]string{"-addr", "127.0.0.1:0", "-pprof", pprofAddr})

	body, code := get(t, "http://"+pprofAddr+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Fatalf("pprof index returned %d: %.120s", code, body)
	}
	if _, code := get(t, base+"/debug/pprof/"); code == http.StatusOK {
		t.Fatal("API listener serves pprof; it must stay on the side listener")
	}

	cancel()
	if err := <-errCh; err != nil {
		t.Fatalf("shutdown returned %v", err)
	}
}

// TestAPIServerTimeouts: the API listener bounds header reads and idle
// keep-alives, and sets no WriteTimeout so /stream can outlive any bound.
func TestAPIServerTimeouts(t *testing.T) {
	srv := apiServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout != 10*time.Second || srv.IdleTimeout != 120*time.Second {
		t.Fatalf("ReadHeaderTimeout %v, IdleTimeout %v; want 10s, 2m0s", srv.ReadHeaderTimeout, srv.IdleTimeout)
	}
	if srv.WriteTimeout != 0 || srv.ReadTimeout != 0 {
		t.Fatalf("WriteTimeout %v, ReadTimeout %v; want none (streams are long-lived)", srv.WriteTimeout, srv.ReadTimeout)
	}
}
