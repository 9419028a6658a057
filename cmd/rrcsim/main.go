// Command rrcsim replays packet traces against a carrier profile under a
// chosen radio-control policy and prints the energy/signaling report.
//
// Usage:
//
//	tracegen -app Email -o email.trc
//	rrcsim -trace email.trc -carrier "Verizon 3G" -policy makeidle -active learn
//	rrcsim -trace email.trc -policy all        # compare every scheme
//	rrcsim -trace email.trc -policy 'fixedtail(wait=2s)'   # parameterized
//	rrcsim -trace month.rrcstream              # O(1)-memory streamed replay
//	rrcsim -users 1000 -policy makeidle -parallel 0   # synthetic fleet replay
//
// -policy and -active take policy specs resolved against the policy
// registry: a bare name (statusquo, fixedtail, pctiat, oracle, makeidle /
// none, learn, fix — plus the legacy aliases 4.5s and 95iat), or
// "name(param=value,...)" to override parameters, e.g.
// 'pctiat(q=0.9)' or 'learn(maxdelay=5s,gamma=0.01)'. Unknown names and
// out-of-range parameters fail with the registry's catalog of valid
// policies and their parameter schemas. -policy all compares every paper
// scheme.
//
// -profile takes carrier profile specs resolved against the profile
// registry the same way: a canonical name (tmobile-3g, att-hspa+,
// verizon-3g, verizon-lte), a Table 2 display name ("Verizon 3G"), or a
// parameterized spec like 'att-hspa+(t1=4s)' overriding any measured
// constant. -carrier remains as an alias of a single -profile. In fleet
// mode -profile and -cohort repeat to sweep a grid: every combination of
// profile × cohort × scheme runs as its own deterministic fleet cell, on
// the service's job executor (its trace cache and its admission limits:
// at most 512 cells, 16 profiles, 16 cohorts, 1,000,000 users and 30
// days per cohort), rendered as one row per cell, e.g.
//
//	rrcsim -users 500 -policy makeidle -profile verizon-3g -profile 'verizon-lte(t1=5s)'
//	rrcsim -policy all -cohort 'study-3g(users=200)' -cohort 'mix(im=2,users=100)'
//
// -cohort takes cohort specs from the cohort registry (study-3g,
// study-lte, mix; see each family's users/duration/diurnal/seedstride and
// app-weight knobs) and replaces the flat -users/-duration pair.
//
// A -trace file is read in any of four formats: text, binary, pcap
// (e.g. straight from tcpdump) or the framed rrcstream codec. rrcstream
// files — and pcap captures when -device-ip names the phone — are pulled
// through the replay engine packet by packet on every pass, in memory
// independent of trace length; other formats are decoded once and
// replayed from memory. -policy all and the trace-fitted policies
// (pctiat/95iat, active=fix) collect one pass and fit on it.
//
// With -users N (no -trace) rrcsim replays an N-user synthetic diurnal
// cohort, the one-cohort grid 'study-3g(users=N,duration=D,diurnal=true)'
// labeled "users=N", and prints one row of streaming aggregates per
// (profile, scheme) cell; per-user traffic is streamed from the seeded
// generators, so memory is independent of -duration; -parallel bounds the
// worker count (results are identical for any value) and -shards fixes
// the aggregate partitioning.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net/netip"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/trace"
	"repro/internal/workload"
)

// specList collects a repeatable spec-string flag.
type specList []string

func (s *specList) String() string { return strings.Join(*s, ", ") }
func (s *specList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func main() {
	var profileFlags, cohortFlags specList
	var (
		tracePath = flag.String("trace", "", "trace file: text, binary, pcap or rrcstream (required unless -users or -cohort is set)")
		carrier   = flag.String("carrier", "", "carrier profile name (alias of a single -profile)")
		polName   = flag.String("policy", "makeidle", "demote policy spec, e.g. makeidle, 4.5s, 'fixedtail(wait=2s)', or all")
		actName   = flag.String("active", "none", "batching policy spec, e.g. none, learn, 'learn(maxdelay=5s)', fix")
		burstGap  = flag.Duration("burstgap", time.Second, "session segmentation gap")
		deviceIP  = flag.String("device-ip", "", "for a pcap -trace: the device's IP address, which sets packet directions and decodes the in-order capture in O(1) memory (otherwise the device is inferred and the capture sorted in memory)")
		users     = flag.Int("users", 0, "fleet mode: replay this many synthetic diurnal users instead of -trace")
		duration  = flag.Duration("duration", 4*time.Hour, "fleet mode: per-user trace length")
		seed      = flag.Int64("seed", 1, "fleet mode: cohort seed")
		parallel  = flag.Int("parallel", 0, "fleet workers (0 = all cores, 1 = serial; never changes results)")
		shards    = flag.Int("shards", 0, "fleet aggregate shards (0 = fixed default)")
	)
	flag.Var(&profileFlags, "profile",
		"carrier profile spec, e.g. verizon-3g, 'att-hspa+(t1=4s)', or a Table 2 display name (repeatable in fleet mode)")
	flag.Var(&cohortFlags, "cohort",
		"fleet mode: cohort spec, e.g. 'study-3g(users=500)' or 'mix(im=2,users=100)' (repeatable; replaces -users)")
	flag.Parse()

	if *carrier != "" {
		profileFlags = append(profileFlags, *carrier)
	}
	if len(profileFlags) == 0 {
		profileFlags = specList{power.Verizon3G.Name}
	}

	fleetMode := *users > 0 || len(cohortFlags) > 0
	if fleetMode {
		if *tracePath != "" {
			fatal(fmt.Errorf("-users/-cohort and -trace are mutually exclusive"))
		}
		if *users > 0 && len(cohortFlags) > 0 {
			fatal(fmt.Errorf("-users and -cohort are mutually exclusive (cohort specs carry their own users knob)"))
		}
		header, table, err := runFleet(profileFlags, cohortFlags, *users, *seed, *duration,
			*polName, *actName, *burstGap,
			fleet.Options{Workers: *parallel, Shards: *shards})
		if err != nil {
			fatal(err)
		}
		fmt.Print(header, table)
		return
	}

	if len(profileFlags) > 1 {
		fatal(fmt.Errorf("multiple -profile values need fleet mode (-users or -cohort)"))
	}
	prof, err := resolveProfile(profileFlags[0])
	if err != nil {
		fatal(err)
	}
	if *tracePath == "" {
		fatal(fmt.Errorf("-trace is required (or -users N / -cohort for fleet mode)"))
	}
	if err := replayTrace(os.Stdout, *tracePath, *deviceIP, prof, *polName, *actName, *burstGap); err != nil {
		fatal(err)
	}
}

// replayTrace replays one trace file and writes the report to w: the
// scheme comparison for -policy all, otherwise the chosen policy pair
// against the status-quo baseline. Each replay is one pass over the file
// (see traceFile); a trace-fitted policy is fitted on one more.
func replayTrace(w io.Writer, path, deviceIP string, prof power.Profile, polName, actName string, burstGap time.Duration) error {
	var pcapOpts *trace.PcapOptions
	if deviceIP != "" {
		addr, err := netip.ParseAddr(deviceIP)
		if err != nil {
			return fmt.Errorf("bad -device-ip: %w", err)
		}
		pcapOpts = &trace.PcapOptions{DeviceIP: addr}
	}
	tf, err := probeTrace(path, pcapOpts)
	if err != nil {
		return err
	}
	opts := &sim.Options{BurstGap: burstGap}
	if polName == "all" {
		tr, err := tf.collect()
		if err != nil {
			return err
		}
		return compareAll(w, tr, prof, opts)
	}

	// Only a trace-fitted half needs the whole trace.
	dfit, err := traceFitted(policy.RoleDemote, polName)
	if err != nil {
		return err
	}
	afit, err := traceFitted(policy.RoleActive, actName)
	if err != nil {
		return err
	}
	var tr trace.Trace
	if dfit || afit {
		if tr, err = tf.collect(); err != nil {
			return err
		}
	}
	demote, err := makeDemote(polName, tr, prof)
	if err != nil {
		return err
	}
	active, err := makeActive(actName, tr, prof, burstGap)
	if err != nil {
		return err
	}
	sq, err := tf.replay(prof, policy.StatusQuo{}, nil, opts)
	if err != nil {
		return err
	}
	res, err := tf.replay(prof, demote, active, opts)
	if err != nil {
		return err
	}
	printResult(w, sq, res)
	return nil
}

// traceFile is a probed trace file that hands out one trace.Source per
// pass: an rrcstream file, or a pcap capture with a known device
// address, is decoded afresh by decode on every pass, in memory
// independent of its length; any other format was decoded once, by
// readTrace, into tr.
type traceFile struct {
	path   string
	decode func(io.Reader) (trace.Source, error)
	tr     trace.Trace
}

// probeTrace sniffs the format of the file at path. pcapOpts, when set,
// names the device of a pcap capture.
func probeTrace(path string, pcapOpts *trace.PcapOptions) (*traceFile, error) {
	decoders := []func(io.Reader) (trace.Source, error){
		func(r io.Reader) (trace.Source, error) { return trace.NewStreamReader(r) },
	}
	if pcapOpts != nil {
		decoders = append(decoders, func(r io.Reader) (trace.Source, error) { return trace.NewPcapSource(r, pcapOpts) })
	}
	for _, decode := range decoders {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		_, err = decode(f)
		f.Close()
		if err == nil {
			return &traceFile{path: path, decode: decode}, nil
		}
	}
	tr, err := readTrace(path)
	if err != nil {
		return nil, err
	}
	return &traceFile{path: path, tr: tr}, nil
}

// pass hands fn a source over one pass of the file.
func (tf *traceFile) pass(fn func(trace.Source) error) error {
	if tf.decode == nil {
		return fn(tf.tr.Source())
	}
	f, err := os.Open(tf.path)
	if err != nil {
		return err
	}
	defer f.Close()
	src, err := tf.decode(f)
	if err != nil {
		return err
	}
	return fn(src)
}

// replay runs one pass under a policy pair.
func (tf *traceFile) replay(prof power.Profile, demote policy.DemotePolicy, active policy.ActivePolicy, opts *sim.Options) (res *sim.Result, err error) {
	err = tf.pass(func(src trace.Source) error {
		res, err = sim.RunSource(src, prof, demote, active, opts)
		return err
	})
	return res, err
}

// collect returns the whole trace: the slice a non-streaming format was
// decoded into, or one pass of a streaming one.
func (tf *traceFile) collect() (tr trace.Trace, err error) {
	if tf.decode == nil {
		return tf.tr, nil
	}
	err = tf.pass(func(src trace.Source) error {
		tr, err = trace.Collect(src)
		return err
	})
	return tr, err
}

// readTrace auto-detects the trace format: the binary container, the
// framed streaming format, a pcap capture (e.g. straight from tcpdump), or
// the line-oriented text form.
func readTrace(path string) (trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if tr, err := trace.ReadBinary(f); err == nil {
		return tr, nil
	}
	if _, err := f.Seek(0, 0); err != nil {
		return nil, err
	}
	if tr, err := trace.ReadStream(f); err == nil {
		return tr, nil
	} else if !errors.Is(err, trace.ErrNotStream) {
		// The magic matched but the frames are bad: surface the real
		// corruption diagnostic instead of a misleading text-parse error.
		return nil, err
	}
	if _, err := f.Seek(0, 0); err != nil {
		return nil, err
	}
	if tr, err := trace.ReadPcap(f, nil); err == nil {
		return tr, nil
	}
	if _, err := f.Seek(0, 0); err != nil {
		return nil, err
	}
	return trace.ReadText(f)
}

// makeDemote resolves a demote policy spec string through the registry.
// Resolution failures carry the registry's catalog of valid policies and
// their parameter schemas, so a typo answers with the whole menu.
func makeDemote(name string, tr trace.Trace, prof power.Profile) (policy.DemotePolicy, error) {
	spec, err := policy.ParseSpec(name)
	if err != nil {
		return nil, err
	}
	d, err := policy.Default().BuildDemote(spec, tr, prof)
	if err != nil {
		return nil, withUsage(err, policy.RoleDemote)
	}
	return d, nil
}

// makeActive is makeDemote for batching policies; "none" yields nil. The
// trace-fitted "fix" policy inherits the -burstgap flag unless the spec
// overrides it (fleet.WithFixBurstGap, the rule every surface shares).
func makeActive(name string, tr trace.Trace, prof power.Profile, burstGap time.Duration) (policy.ActivePolicy, error) {
	spec, err := policy.ParseSpec(name)
	if err != nil {
		return nil, err
	}
	spec = fleet.WithFixBurstGap(spec, burstGap)
	a, err := policy.Default().BuildActive(spec, tr, prof)
	if err != nil {
		return nil, withUsage(err, policy.RoleActive)
	}
	return a, nil
}

// withUsage appends the registry's policy catalog to a resolution error.
func withUsage(err error, role policy.Role) error {
	return fmt.Errorf("%w\nvalid %s policies:\n%s", err, role, policy.Default().Usage(role))
}

// traceFitted reports whether a policy spec resolves to a trace-fitted
// schema, which needs the whole trace before the replay.
func traceFitted(role policy.Role, name string) (bool, error) {
	spec, err := policy.ParseSpec(name)
	if err != nil {
		return false, err
	}
	schema, _, err := policy.Default().Resolve(role, spec)
	if err != nil {
		return false, withUsage(err, role)
	}
	return schema.TraceFitted, nil
}

func printResult(w io.Writer, sq, res *sim.Result) {
	t := report.NewTable(fmt.Sprintf("%s on %s", res.Policy, res.Profile),
		"Metric", "Value")
	t.AddRowf("total energy (J)", res.TotalJ())
	t.AddRowf("  data (J)", res.Breakdown.DataJ)
	t.AddRowf("  DCH tail (J)", res.Breakdown.T1TailJ)
	t.AddRowf("  FACH tail (J)", res.Breakdown.T2TailJ)
	t.AddRowf("  switches (J)", res.Breakdown.SwitchJ)
	t.AddRowf("status quo energy (J)", sq.TotalJ())
	t.AddRowf("energy saved (%)", metrics.SavingsPercent(sq, res))
	t.AddRowf("promotions", res.Promotions)
	t.AddRowf("switches / status quo", metrics.SwitchRatio(sq, res))
	if res.Active != "" {
		d := metrics.Delays(res.BurstDelays)
		t.AddRowf("batching policy", res.Active)
		t.AddRowf("bursts delayed", d.Count)
		t.AddRowf("mean delay (s)", d.Mean.Seconds())
		t.AddRowf("median delay (s)", d.Median.Seconds())
	}
	fmt.Fprint(w, t.String())
}

func compareAll(w io.Writer, tr trace.Trace, prof power.Profile, opts *sim.Options) error {
	sq, schemes, err := experiments.RunSchemes(tr, prof, opts)
	if err != nil {
		return err
	}
	t := report.NewTable(fmt.Sprintf("All schemes on %s (status quo: %.1f J, %d switches)",
		prof.Name, sq.TotalJ(), sq.Promotions),
		"Scheme", "Energy(J)", "Saved(%)", "Switches/statusquo", "Saved per switch(J)")
	for _, s := range schemes {
		t.AddRowf(s.Scheme, s.Result.TotalJ(), s.SavingsPct, s.SwitchRatio, s.SavedPerSwitchJ)
	}
	fmt.Fprint(w, t.String())
	return nil
}

// profileSpecFromFlag adapts a CLI profile spec string to a power
// ProfileSpec. Plain flat spellings keep their legacy labels ("Verizon 3G"
// stays "Verizon 3G"); parameterized specs get registry-derived labels
// ("verizon-lte(t1=5s)") — the same per-half rule the policy flags use.
func profileSpecFromFlag(raw string) (power.ProfileSpec, error) {
	sp, err := spec.Parse(raw)
	if err != nil {
		return power.ProfileSpec{}, fmt.Errorf("profile: %w", err)
	}
	ps := power.ProfileSpec{Name: sp.Name, Params: sp.Params}
	if !strings.ContainsRune(raw, '(') {
		ps.Label = sp.Name
	}
	if _, err := ps.Profile(power.Default()); err != nil {
		return power.ProfileSpec{}, fmt.Errorf("%w\nvalid profiles:\n%s", err, power.Default().Usage())
	}
	return ps, nil
}

// resolveProfile builds the validated Profile a single-replay run uses.
func resolveProfile(raw string) (power.Profile, error) {
	ps, err := profileSpecFromFlag(raw)
	if err != nil {
		return power.Profile{}, err
	}
	return ps.Profile(power.Default())
}

// cohortSpecFromFlag adapts a CLI cohort spec string to a fleet
// CohortSpec, validated against the cohort registry so a bad flag answers
// with the registry's catalog of cohorts and their parameter schemas.
func cohortSpecFromFlag(raw string) (fleet.CohortSpec, error) {
	sp, err := spec.Parse(raw)
	if err != nil {
		return fleet.CohortSpec{}, fmt.Errorf("cohort: %w", err)
	}
	cs := fleet.CohortSpec{Name: sp.Name, Params: sp.Params}
	if _, err := workload.Cohorts().Plan(cs.Spec()); err != nil {
		return fleet.CohortSpec{}, fmt.Errorf("%w\nvalid cohorts:\n%s", err, workload.Cohorts().Usage())
	}
	return cs, nil
}

// runFleet replays synthetic cohorts and returns streaming aggregates —
// no per-user result is retained — as a one-line header (which carries
// the wall time) and the rendered table. Every shape is a grid: the flags
// become a jobs.Spec (the flat -users population the cohort
// "study-3g(diurnal=true)" labeled "users=N"), run through jobs.Run —
// the service's plan, cell executor, trace cache and admission limits —
// and rendered one row per cell.
func runFleet(profileFlags, cohortFlags []string, users int, seed int64, duration time.Duration, polName, actName string, burstGap time.Duration, fopts fleet.Options) (header, table string, err error) {
	var schemes []fleet.SchemeSpec
	if polName == "all" {
		schemes = experiments.FleetSchemes(burstGap)
	} else {
		ss, err := fleetSchemeSpec(polName, actName, burstGap)
		if err != nil {
			return "", "", err
		}
		schemes = []fleet.SchemeSpec{ss}
	}

	profiles := make([]power.ProfileSpec, 0, len(profileFlags))
	for _, raw := range profileFlags {
		ps, err := profileSpecFromFlag(raw)
		if err != nil {
			return "", "", err
		}
		profiles = append(profiles, ps)
	}

	var cohorts []fleet.CohortSpec
	if len(cohortFlags) == 0 {
		cohorts = []fleet.CohortSpec{{
			Label: fmt.Sprintf("users=%d", users),
			Name:  "study-3g",
			Params: map[string]any{
				"users": users, "duration": duration, "diurnal": true,
			},
		}}
	}
	for _, raw := range cohortFlags {
		cs, err := cohortSpecFromFlag(raw)
		if err != nil {
			return "", "", err
		}
		cohorts = append(cohorts, cs)
	}

	start := time.Now()
	res, err := jobs.Run(jobs.Spec{
		Seed:     seed,
		Schemes:  schemes,
		Profiles: profiles,
		Cohorts:  cohorts,
		BurstGap: jobs.Duration(burstGap),
		Shards:   fopts.Shards,
	}, jobs.Config{Workers: fopts.Workers})
	if err != nil {
		return "", "", err
	}
	header = fmt.Sprintf("fleet grid: %d cohorts x %d profiles x %d schemes = %d cells in %s\n",
		len(cohorts), len(profiles), len(schemes), len(res.Cells),
		time.Since(start).Round(time.Millisecond))
	// One row per cell even when the grid is single-axis (one -cohort,
	// one -profile), which the job itself would render flat.
	cells := make([]report.GridCell, len(res.Cells))
	for i, c := range res.Cells {
		cells[i] = report.GridCell{Scheme: c.Scheme, Profile: c.Profile, Cohort: c.Cohort, Summary: c.Summary}
	}
	return header, report.GridTable(cells).String(), nil
}

// fleetSchemeSpec adapts the CLI policy spec strings to a scheme spec.
// Plain flat names keep their legacy summary labels ("makeidle+learn");
// parameterized specs get derived labels ("fixedtail(wait=2s)").
func fleetSchemeSpec(polName, actName string, burstGap time.Duration) (fleet.SchemeSpec, error) {
	dspec, err := policy.ParseSpec(polName)
	if err != nil {
		return fleet.SchemeSpec{}, err
	}
	if _, _, err := policy.Default().Resolve(policy.RoleDemote, dspec); err != nil {
		return fleet.SchemeSpec{}, withUsage(err, policy.RoleDemote)
	}
	aspec, err := policy.ParseSpec(actName)
	if err != nil {
		return fleet.SchemeSpec{}, err
	}
	aspec = fleet.WithFixBurstGap(aspec, burstGap)
	aschema, _, err := policy.Default().Resolve(policy.RoleActive, aspec)
	if err != nil {
		return fleet.SchemeSpec{}, withUsage(err, policy.RoleActive)
	}
	// Summary labels are decided per flag half: a flat spelling keeps its
	// legacy label (the ParseSpec-trimmed name, aliases included — "4.5s"
	// stays "4.5s"), a parameterized spec gets the registry-derived one —
	// so mixing the two forms never relabels the flat half.
	labelFor := func(raw string, role policy.Role, spec policy.Spec) (string, error) {
		if !strings.ContainsRune(raw, '(') {
			return spec.Name, nil
		}
		res, err := policy.Default().Resolution(role, spec)
		return res.Label, err
	}
	label, err := labelFor(polName, policy.RoleDemote, dspec)
	if err != nil {
		return fleet.SchemeSpec{}, err
	}
	ss := fleet.SchemeSpec{Label: label, Policy: dspec}
	if aschema.Name != fleet.ActiveNone {
		alabel, err := labelFor(actName, policy.RoleActive, aspec)
		if err != nil {
			return fleet.SchemeSpec{}, err
		}
		ss.Label = label + "+" + alabel
		ss.Active = &aspec
	}
	return ss, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rrcsim:", err)
	os.Exit(1)
}
