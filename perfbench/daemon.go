package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/jobs"
)

// daemon is one life of a real rrcsimd process, driven over loopback HTTP
// by a client that keeps a single connection open.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	client  *http.Client
	drained chan struct{}
}

// startDaemon execs rrcsimd on an ephemeral loopback port and returns once
// /healthz answers, with the time from exec to that first answer.
func startDaemon(bin string, args []string) (*daemon, time.Duration, error) {
	args = append([]string{"-addr", "127.0.0.1:0", "-parallel", "1"}, args...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("exec %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{}), client: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}}
	addr := make(chan string, 1)
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(out)
		sent := false
		for sc.Scan() {
			if !sent {
				if _, a, ok := strings.Cut(sc.Text(), "serving on "); ok {
					addr <- strings.Fields(a)[0]
					sent = true
				}
			}
		}
		if !sent {
			close(addr)
		}
	}()
	a, ok := <-addr
	if !ok {
		d.kill()
		return nil, 0, fmt.Errorf("rrcsimd exited before listening")
	}
	d.base = "http://" + a
	for {
		resp, err := d.client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		if time.Since(t0) > 30*time.Second {
			d.kill()
			return nil, 0, fmt.Errorf("rrcsimd not healthy after 30s: %v", err)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// stop shuts the daemon down gracefully and waits for it to exit.
func (d *daemon) stop() error {
	d.client.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	exited := make(chan error, 1)
	go func() { <-d.drained; exited <- d.cmd.Wait() }()
	select {
	case err := <-exited:
		return err
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-exited
		return errors.New("rrcsimd ignored SIGTERM for 20s")
	}
}

// kill ends a daemon that failed to come up.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.drained
	d.cmd.Wait()
}

// cpuSeconds is the daemon's user + system CPU time so far.
func (d *daemon) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name start at field 3.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return float64(utime+stime) / clockTicks, nil
}

// clockTicks is USER_HZ, the unit of /proc CPU times, on every Linux ABI
// Go supports.
const clockTicks = 100

// stolenSeconds is the CPU time the hypervisor has so far kept from this
// machine's virtual CPUs while they had work to run, summed over CPUs: the
// steal column of /proc/stat, which stays zero on bare metal.
func stolenSeconds() (float64, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, fmt.Errorf("/proc/stat has no steal column: %q", line)
	}
	steal, err := strconv.ParseInt(f[8], 10, 64)
	return float64(steal) / clockTicks, err
}

// resetPeakRSS restarts the daemon's VmHWM from its current RSS.
func (d *daemon) resetPeakRSS() error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", d.cmd.Process.Pid), []byte("5"), 0)
}

// peakRSSMiB is the daemon's VmHWM.
func (d *daemon) peakRSSMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM")
}

// health is the part of /healthz the benchmark reads.
type health struct {
	CellsExecuted    int64 `json:"cells_executed"`
	TraceCacheHits   int64 `json:"trace_cache_hits"`
	TraceCacheMisses int64 `json:"trace_cache_misses"`
}

func (d *daemon) health() (health, error) {
	var h health
	b, _, err := d.do("GET", "/healthz", nil, http.StatusOK)
	if err == nil {
		err = json.Unmarshal(b, &h)
	}
	return h, err
}

// do sends one request and reads the whole body.
func (d *daemon) do(method, path string, body []byte, want int) ([]byte, int, error) {
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil && resp.StatusCode != want {
		err = fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, resp.StatusCode, err
}

// jobRun is one job as the client saw it.
type jobRun struct {
	ID      string
	Seconds float64 // POST /v1/jobs to the last byte of /result
	Stolen  float64 // CPU time the hypervisor stole meanwhile
	Result  []byte
	Status  jobs.Status
	// QueueWait and ServerRun come from the job's status timestamps:
	// started-submitted and finished-submitted.
	QueueWait, ServerRun float64
	Before, After        health
	PeakMiB              float64 // the daemon's peak RSS during the job
}

// runJob submits body, waits on the job's stream until it closes, and
// fetches the result. The /healthz reads that bracket it are outside the
// timed region. With a tracer, the job is a span and its three requests
// are its children.
func (d *daemon) runJob(body []byte, tr *tracer) (jobRun, error) {
	var r jobRun
	var err error
	if r.Before, err = d.health(); err != nil {
		return r, err
	}
	if err := d.resetPeakRSS(); err != nil {
		return r, err
	}
	stolen0, err := stolenSeconds()
	if err != nil {
		return r, err
	}
	root := tr.start("job", -1, "", 0)
	t0 := time.Now()
	sp := tr.start("server.submit", root, "", 0)
	b, code, err := d.do("POST", "/v1/jobs", body, http.StatusAccepted)
	tr.end(sp)
	if err != nil {
		if code == http.StatusOK {
			err = fmt.Errorf("job was served from the result cache: the seed list repeated")
		}
		return r, err
	}
	var st jobs.Status
	if err := json.Unmarshal(b, &st); err != nil {
		return r, err
	}
	r.ID = st.ID
	tr.setJob(root, st.ID)
	sp = tr.start("server.stream", root, st.ID, 0)
	b, _, err = d.do("GET", "/v1/jobs/"+st.ID+"/stream", nil, http.StatusOK)
	tr.end(sp)
	if err != nil {
		return r, err
	}
	if last := lastLine(b); !bytes.Contains(last, []byte(`"state":"done"`)) {
		return r, fmt.Errorf("job %s ended %s", st.ID, last)
	}
	sp = tr.start("server.result", root, st.ID, 0)
	r.Result, _, err = d.do("GET", "/v1/jobs/"+st.ID+"/result", nil, http.StatusOK)
	tr.end(sp)
	r.Seconds = time.Since(t0).Seconds()
	tr.end(root)
	if err != nil {
		return r, err
	}
	stolen1, err := stolenSeconds()
	if err != nil {
		return r, err
	}
	r.Stolen = stolen1 - stolen0
	if r.PeakMiB, err = d.peakRSSMiB(); err != nil {
		return r, err
	}
	if b, _, err = d.do("GET", "/v1/jobs/"+st.ID, nil, http.StatusOK); err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r.Status); err != nil {
		return r, err
	}
	sub, err1 := time.Parse(time.RFC3339Nano, r.Status.SubmittedAt)
	start, err2 := time.Parse(time.RFC3339Nano, r.Status.StartedAt)
	fin, err3 := time.Parse(time.RFC3339Nano, r.Status.FinishedAt)
	if err := errors.Join(err1, err2, err3); err != nil {
		return r, fmt.Errorf("job %s timestamps: %w", st.ID, err)
	}
	r.QueueWait = start.Sub(sub).Seconds()
	r.ServerRun = fin.Sub(sub).Seconds()
	r.After, err = d.health()
	return r, err
}

// busy is the job's time less the CPU time the hypervisor stole from the
// machine meanwhile. The daemon runs one fleet worker and the client only
// waits on it, so nearly all of the stolen time was the daemon's.
func (r jobRun) busy() float64 { return max(r.Seconds-r.Stolen, 0) }

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	return b[bytes.LastIndexByte(b, '\n')+1:]
}
