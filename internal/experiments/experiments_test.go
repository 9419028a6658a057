package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/workload"
)

// quickCfg keeps experiment tests fast while leaving enough traffic for
// stable qualitative results.
func quickCfg() Config {
	return Config{Seed: 42, AppDuration: time.Hour, UserDuration: 2 * time.Hour}
}

// experimentDigests pins the sha256 of every All() rendering at
// TestAllExperimentsRun's config with Workers: 1. A refactor that silently
// moves a paper figure (e.g. a factory losing its fit trace) changes a
// digest here even when every qualitative assertion still holds.
var experimentDigests = map[string]string{
	"tab1":  "e6390c50b850a11fcc4d50d699e48c7c3cadb2f49a5cef977d2a167b9d7cac1e",
	"tab2":  "9ba0b06ef6ae421e7aa5885775697b4bff921b6852bace9fc85928010eaccbcc",
	"fig1":  "b8efa6b7898b231f78dee0cbf48eb5d49e78b0431c41c8ccc0955b136a5bf8f7",
	"fig3":  "a3d616381b41b780b0f01a3e28c755cbc1c332496b005b776a51660853889aa1",
	"fig8":  "89cf8746ffb51a3fc216cc00580ee2eb6d4fc15627945ed6460875e07aad9ed9",
	"fig9":  "d34a8eeed5845f5905df356b3f91c1cb908b45fe4adf06417ea91f089c91526e",
	"fig10": "ab5bc7941dfcabdee6727a8f193ac47df0b94aa1b9840ba2bdeac5560e6671e6",
	"fig11": "2a3c6f9a6551524182f8956ed61f1ea81341b0c2b3d14a414524b09e8d84ff56",
	"fig12": "53b96cc662df00b2410f9b040a989751ed81e7e85cc84047303d30237cc43e5b",
	"fig13": "46a9558e7ff88f9f7d09bf5abf1f8113203883571ca0d383a897daa418e1a065",
	"fig14": "fe276ec40d50edba15bcade5ee5eafa8988be113349c2cfd2432129d7ffd6709",
	"fig15": "c4d0d6007de7adf164b44a82ed6901513448b3ded3001a51344f36a56150e971",
	"fig16": "ac8b672b79f08a2c10e8ded988735b2b399e0ced67dbd54ffd4501f1eebdfa0e",
	"fig17": "f200ac52401f662b16453b6e75c2303bbd536f76ed7f1c4f31829f697402d476",
	"fig18": "b4ebe6751f3737f63d71994e9981dfb957ca2cb6572f69b0df5d6ff197745682",
	"tab3":  "248b2e95a20bc97f1695d7e8a3dadef8b4cbaa2f80cd52cbe023d5e96325c256",
	"sens":  "dbe8742e4bf5a790c8a2219269fd44306d0368bc393f92c70850996c104ac968",
	"bs":    "d00c3d8b51c78e01c4e4332543d176a92a7bc7f87186c85eba4941c17c1d5788",
	"buf":   "2dacb62ffb79b790ac526e0967cb49b28bafc838b6ecd284c8848db8a132948b",
	"life":  "a6344312dceb791ab2687a572249973ca65363c8e436ceecff820fc753a0c66f",
	"fleet": "10225cfec552db9fcef9bb8461c79c50d16224191f20b38ab65e04696f5ca52e",
	"sweep": "cd921c16cd67dd8fbe8d1135a6ddf190aa323576090b238219a3ad9a79968055",
	"grid":  "1b558a37f7a2e8e46173dcf21070dfcf8faa5b417785e06810eda8c41e232f8b",
}

// TestAllExperimentsRun renders every experiment serially against its pinned
// digest, then again on three workers: worker count never changes a
// rendering.
func TestAllExperimentsRun(t *testing.T) {
	cfg := Config{Seed: 7, AppDuration: 20 * time.Minute, UserDuration: 30 * time.Minute}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			for _, workers := range []int{1, 3} {
				c := cfg
				c.Workers = workers
				out, err := e.Run(c)
				if err != nil {
					t.Fatalf("%s (workers=%d): %v", e.ID, workers, err)
				}
				if strings.TrimSpace(out) == "" {
					t.Fatalf("%s (workers=%d): empty output", e.ID, workers)
				}
				sum := sha256.Sum256([]byte(out))
				if got, want := hex.EncodeToString(sum[:]), experimentDigests[e.ID]; got != want {
					t.Errorf("%s (workers=%d): rendering digest %s, want %s", e.ID, workers, got, want)
				}
			}
		})
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("fig9"); !ok {
		t.Fatal("fig9 not registered")
	}
	if _, ok := ByID("fig99"); ok {
		t.Fatal("unknown id found")
	}
	if len(All()) < 15 {
		t.Fatalf("only %d experiments registered", len(All()))
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Seed == 0 || c.AppDuration == 0 || c.UserDuration == 0 {
		t.Fatalf("defaults not applied: %+v", c)
	}
	c2 := Config{Seed: 9, AppDuration: time.Minute, UserDuration: time.Minute}.withDefaults()
	if c2.Seed != 9 || c2.AppDuration != time.Minute {
		t.Fatalf("explicit values overridden: %+v", c2)
	}
}

// TestPaperShapeHoldsOnUserMix verifies the headline qualitative results of
// the paper on one user mix: MakeIdle beats the fixed baselines, lands near
// the Oracle, and MakeActive brings switches back toward the status quo.
func TestPaperShapeHoldsOnUserMix(t *testing.T) {
	cfg := quickCfg()
	u := workload.Verizon3GUsers()[0]
	tr := u.Generate(cfg.Seed, cfg.UserDuration)
	_, schemes, err := RunSchemes(tr, power.Verizon3G, nil)
	if err != nil {
		t.Fatal(err)
	}
	by := map[string]SchemeResult{}
	for _, s := range schemes {
		by[s.Scheme] = s
	}

	mi := by[SchemeMakeIdle]
	or := by[SchemeOracle]
	ff := by[SchemeFourFive]
	learn := by[SchemeCombLearn]
	fix := by[SchemeCombFix]

	if mi.SavingsPct <= 0 {
		t.Fatalf("MakeIdle savings %.1f%% not positive", mi.SavingsPct)
	}
	if or.SavingsPct <= 0 {
		t.Fatalf("Oracle savings %.1f%% not positive", or.SavingsPct)
	}
	if mi.SavingsPct <= ff.SavingsPct {
		t.Fatalf("MakeIdle (%.1f%%) should beat 4.5-second (%.1f%%)", mi.SavingsPct, ff.SavingsPct)
	}
	// MakeIdle close to the Oracle (paper: consistently close).
	if or.SavingsPct-mi.SavingsPct > 15 {
		t.Fatalf("MakeIdle (%.1f%%) far below Oracle (%.1f%%)", mi.SavingsPct, or.SavingsPct)
	}
	// MakeIdle alone multiplies switches; MakeActive brings them down.
	if mi.SwitchRatio <= 1 {
		t.Logf("note: MakeIdle switch ratio %.2f (usually > 1)", mi.SwitchRatio)
	}
	if learn.SwitchRatio >= mi.SwitchRatio {
		t.Fatalf("MakeActive-Learn did not reduce switches: %.2f vs %.2f",
			learn.SwitchRatio, mi.SwitchRatio)
	}
	if fix.SwitchRatio >= mi.SwitchRatio {
		t.Fatalf("MakeActive-Fix did not reduce switches: %.2f vs %.2f",
			fix.SwitchRatio, mi.SwitchRatio)
	}
	// Combined methods keep (or improve) the savings.
	if learn.SavingsPct < mi.SavingsPct-10 {
		t.Fatalf("combined learn savings collapsed: %.1f%% vs MakeIdle %.1f%%",
			learn.SavingsPct, mi.SavingsPct)
	}
}

func TestHeadlineSavingsBand(t *testing.T) {
	// The paper reports 51-66% savings for MakeIdle on 3G and 67% on LTE.
	// Synthetic traces will not match exactly; require the right ballpark
	// (>= 30% on both Verizon profiles for the averaged cohort).
	cfg := quickCfg()
	for _, prof := range []power.Profile{power.Verizon3G, power.VerizonLTE} {
		savings, _, err := CarrierResults(prof, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := savings[SchemeMakeIdle]; got < 30 {
			t.Errorf("%s: MakeIdle mean savings %.1f%% below plausibility band", prof.Name, got)
		}
		if savings[SchemeOracle] < savings[SchemeMakeIdle]-15 {
			t.Errorf("%s: Oracle (%.1f%%) implausibly below MakeIdle (%.1f%%)",
				prof.Name, savings[SchemeOracle], savings[SchemeMakeIdle])
		}
	}
}

func TestEnergyModelErrorWithinBand(t *testing.T) {
	// Fig. 8: the coarse model should sit within ~10-15% of the
	// fine-grained synthetic measurement.
	var errs []float64
	for _, prof := range []power.Profile{power.Verizon3G, power.VerizonLTE} {
		for _, kb := range []int{10, 100, 1000} {
			for run := 0; run < 5; run++ {
				e, err := EnergyModelError(prof, kb*1000, int64(kb+run))
				if err != nil {
					t.Fatal(err)
				}
				errs = append(errs, e)
				if math.Abs(e) > 0.25 {
					t.Errorf("%s %dkB run %d: error %.3f out of band", prof.Name, kb, run, e)
				}
			}
		}
	}
	if m := metrics.MeanAbs(errs); m > 0.15 {
		t.Errorf("mean |error| = %.3f, want <= 0.15", m)
	}
}

func TestWindowSweepShape(t *testing.T) {
	// Fig. 13: FP rate should not grow as the window grows; small windows
	// are the noisy ones.
	cfg := quickCfg()
	u := workload.Verizon3GUsers()[0]
	tr := u.Generate(cfg.Seed, cfg.UserDuration)

	confusionAt := func(n int) metrics.Confusion {
		mi, err := policy.NewMakeIdle(power.Verizon3G, policy.WithWindowSize(n))
		if err != nil {
			t.Fatal(err)
		}
		c, err := ConfusionFor(tr, power.Verizon3G, mi)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	small := confusionAt(10)
	large := confusionAt(400)
	if large.FalsePositiveRate() > small.FalsePositiveRate()+5 {
		t.Errorf("FP grew with window size: n=10 %.1f%%, n=400 %.1f%%",
			small.FalsePositiveRate(), large.FalsePositiveRate())
	}
}

func TestTwaitTrajectoryNonEmpty(t *testing.T) {
	cfg := quickCfg()
	u := workload.Verizon3GUsers()[0]
	tr := u.Generate(cfg.Seed, cfg.UserDuration)
	s, err := TwaitTrajectory(tr, power.Verizon3G, 30*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.X) == 0 {
		t.Fatal("no t_wait points recorded")
	}
	p := power.Verizon3G
	_ = p
	for _, y := range s.Y {
		if y < 0 || y > power.Verizon3G.Tail().Seconds() {
			t.Fatalf("t_wait %v out of range", y)
		}
	}
}

func TestDelayComparisonLearnBeatsFixed(t *testing.T) {
	// Fig. 15: learning cuts the average delay versus the fixed bound.
	cfg := quickCfg()
	u := workload.Verizon3GUsers()[3] // four-app mix: plenty of batching
	tr := u.Generate(cfg.Seed, cfg.UserDuration)
	learn, fixed, err := DelayComparison(tr, power.Verizon3G)
	if err != nil {
		t.Fatal(err)
	}
	if learn.Count == 0 || fixed.Count == 0 {
		t.Fatalf("no delays recorded: learn=%d fixed=%d", learn.Count, fixed.Count)
	}
	if learn.Mean >= fixed.Mean {
		t.Errorf("learning mean delay %v not below fixed %v", learn.Mean, fixed.Mean)
	}
}

func TestCarrierResultsDeterministic(t *testing.T) {
	cfg := Config{Seed: 5, AppDuration: 30 * time.Minute, UserDuration: time.Hour}
	a, _, err := CarrierResults(power.Verizon3G, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := CarrierResults(power.Verizon3G, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range a {
		if math.Abs(b[k]-v) > 1e-9 {
			t.Fatalf("scheme %s differs across identical runs: %v vs %v", k, v, b[k])
		}
	}
}

// TestCarrierGridShared: the cross-carrier experiments of one All() list
// read one carrier grid per Config, the very maps the first of them
// computed, and render what the standalone functions render.
func TestCarrierGridShared(t *testing.T) {
	cfg := Config{Seed: 5, AppDuration: 10 * time.Minute, UserDuration: 10 * time.Minute, Workers: 2}
	g := new(carrierGrids)
	for _, c := range []struct {
		shared, alone func(Config) (string, error)
	}{{g.fig17, Fig17}, {g.fig18, Fig18}, {g.lifetime, LifetimeEstimate}} {
		got, err1 := c.shared(cfg)
		want, err2 := c.alone(cfg)
		if err1 != nil || err2 != nil || got != want {
			t.Fatalf("shared grid rendered %q (%v), standalone %q (%v)", got, err1, want, err2)
		}
	}
	s1, r1, err1 := g.get(cfg)
	s2, r2, err2 := g.get(cfg)
	if err1 != nil || err2 != nil || len(g.done) != 1 ||
		reflect.ValueOf(s1).Pointer() != reflect.ValueOf(s2).Pointer() || reflect.ValueOf(r1).Pointer() != reflect.ValueOf(r2).Pointer() {
		t.Fatalf("the carrier grid was not shared: %d configs memoized (%v, %v)", len(g.done), err1, err2)
	}
	other := cfg
	other.Seed++
	if _, _, err := g.get(other); err != nil || len(g.done) != 2 {
		t.Fatalf("another Config reused the grid: %d configs memoized (%v)", len(g.done), err)
	}
}
