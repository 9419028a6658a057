package power

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestPredefinedProfilesValid(t *testing.T) {
	for _, p := range []Profile{TMobile3G, ATTHSPAPlus, Verizon3G, VerizonLTE} {
		if err := p.Validate(); err != nil {
			t.Errorf("profile %q invalid: %v", p.Name, err)
		}
	}
}

func TestTable2Values(t *testing.T) {
	// Spot-check the constants against Table 2 of the paper.
	cases := []struct {
		p      Profile
		send   float64
		t1MW   float64
		t1, t2 time.Duration
		tech   Tech
	}{
		{TMobile3G, 1202, 445, 3200 * time.Millisecond, 16300 * time.Millisecond, Tech3G},
		{ATTHSPAPlus, 1539, 916, 6200 * time.Millisecond, 10400 * time.Millisecond, Tech3G},
		{Verizon3G, 2043, 1130, 9800 * time.Millisecond, 0, Tech3G},
		{VerizonLTE, 2928, 1325, 10200 * time.Millisecond, 0, TechLTE},
	}
	for _, c := range cases {
		if c.p.SendMW != c.send || c.p.T1MW != c.t1MW || c.p.T1 != c.t1 || c.p.T2 != c.t2 || c.p.Tech != c.tech {
			t.Errorf("%s: table values drifted: %+v", c.p.Name, c.p)
		}
	}
}

func TestTechString(t *testing.T) {
	if Tech3G.String() != "3G" || TechLTE.String() != "LTE" {
		t.Fatalf("tech strings: %v %v", Tech3G, TechLTE)
	}
	if !strings.Contains(Tech(9).String(), "9") {
		t.Fatalf("unknown tech: %v", Tech(9))
	}
}

func TestValidateRejects(t *testing.T) {
	base := ATTHSPAPlus // valid
	mutations := []struct {
		name string
		mut  func(*Profile)
	}{
		{"no name", func(p *Profile) { p.Name = "" }},
		{"zero send", func(p *Profile) { p.SendMW = 0 }},
		{"negative recv", func(p *Profile) { p.RecvMW = -1 }},
		{"zero t1 power", func(p *Profile) { p.T1MW = 0 }},
		{"zero t1", func(p *Profile) { p.T1 = 0 }},
		{"negative t2", func(p *Profile) { p.T2 = -time.Second }},
		{"t2 power missing", func(p *Profile) { p.T2MW = 0 }},
		{"lte with t2", func(p *Profile) { p.Tech = TechLTE }},
		{"dormancy 0", func(p *Profile) { p.DormancyFraction = 0 }},
		{"dormancy >1", func(p *Profile) { p.DormancyFraction = 1.5 }},
		{"zero uplink", func(p *Profile) { p.UplinkMbps = 0 }},
		{"zero downlink", func(p *Profile) { p.DownlinkMbps = 0 }},
		{"zero promotion delay", func(p *Profile) { p.PromotionDelay = 0 }},
		{"zero promotion power", func(p *Profile) { p.PromotionMW = 0 }},
		{"zero radio off", func(p *Profile) { p.RadioOffJ = 0 }},
	}
	for _, m := range mutations {
		p := base
		m.mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %q accepted", m.name)
		}
	}
}

func TestTail(t *testing.T) {
	if got := ATTHSPAPlus.Tail(); got != 16600*time.Millisecond {
		t.Fatalf("AT&T tail = %v, want 16.6s", got)
	}
	if got := VerizonLTE.Tail(); got != VerizonLTE.T1 {
		t.Fatalf("LTE tail = %v, want t1", got)
	}
}

func TestSwitchEnergyComposition(t *testing.T) {
	p := ATTHSPAPlus
	wantProm := p.PromotionMW / 1000 * p.PromotionDelay.Seconds()
	if got := p.PromotionJ(); math.Abs(got-wantProm) > 1e-12 {
		t.Fatalf("PromotionJ = %v, want %v", got, wantProm)
	}
	if got := p.DormancyJ(); math.Abs(got-0.5*p.RadioOffJ) > 1e-12 {
		t.Fatalf("DormancyJ = %v", got)
	}
	if got := p.SwitchJ(); math.Abs(got-(p.PromotionJ()+p.DormancyJ())) > 1e-12 {
		t.Fatalf("SwitchJ = %v", got)
	}
}

func TestTxTime(t *testing.T) {
	p := Profile{UplinkMbps: 1, DownlinkMbps: 8}
	// 1 Mb at 1 Mbps uplink = 1 s.
	if got := p.TxTime(125000, true); got != time.Second {
		t.Fatalf("uplink TxTime = %v, want 1s", got)
	}
	// Same bytes at 8 Mbps downlink = 125 ms.
	if got := p.TxTime(125000, false); got != 125*time.Millisecond {
		t.Fatalf("downlink TxTime = %v, want 125ms", got)
	}
	if got := p.TxTime(0, true); got != 0 {
		t.Fatalf("zero-size TxTime = %v", got)
	}
}

func TestTxPower(t *testing.T) {
	p := VerizonLTE
	if p.TxPowerMW(true) != p.SendMW || p.TxPowerMW(false) != p.RecvMW {
		t.Fatal("TxPowerMW direction mix-up")
	}
}

func TestWithDormancyFraction(t *testing.T) {
	orig := Verizon3G
	mod := orig.WithDormancyFraction(0.1)
	if mod.DormancyFraction != 0.1 {
		t.Fatalf("fraction not applied: %v", mod.DormancyFraction)
	}
	if orig.DormancyFraction != 0.5 {
		t.Fatal("WithDormancyFraction mutated the original")
	}
	if !strings.Contains(mod.Name, "0.1") {
		t.Fatalf("name should mention fraction: %q", mod.Name)
	}
	if err := mod.Validate(); err != nil {
		t.Fatalf("modified profile invalid: %v", err)
	}
}

func TestPropertySwitchEnergyPositiveAndMonotone(t *testing.T) {
	// For any valid dormancy fraction, SwitchJ is positive and increases
	// with the fraction.
	f := func(fracRaw uint8) bool {
		frac := 0.05 + float64(fracRaw%90)/100 // (0.05 .. 0.94]
		p := ATTHSPAPlus.WithDormancyFraction(frac)
		q := ATTHSPAPlus.WithDormancyFraction(frac + 0.05)
		return p.SwitchJ() > 0 && q.SwitchJ() > p.SwitchJ()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLTEPromotionFasterThan3G(t *testing.T) {
	// §2.1: Verizon LTE promotions (~0.6 s) are faster than its 3G (~1.2 s).
	if VerizonLTE.PromotionDelay >= Verizon3G.PromotionDelay {
		t.Fatal("LTE promotion should be faster than 3G")
	}
}
