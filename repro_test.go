package repro

import (
	"testing"
	"time"
)

func TestFacadeEndToEnd(t *testing.T) {
	tr := GenerateApp(Email(), 1, time.Hour)
	if len(tr) == 0 {
		t.Fatal("empty trace")
	}
	sq, err := Simulate(tr, Verizon3G(), StatusQuo(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	mi, err := NewMakeIdle(Verizon3G())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(tr, Verizon3G(), mi, NewLearnedDelay(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if SavingsPercent(sq, res) <= 0 {
		t.Fatalf("no savings through the facade: %v vs %v", sq.TotalJ(), res.TotalJ())
	}
}

func TestFacadeProfilesAndApps(t *testing.T) {
	for _, p := range []Profile{TMobile3G(), ATTHSPAPlus(), Verizon3G(), VerizonLTE()} {
		if err := p.Validate(); err != nil {
			t.Fatalf("carrier %q: %v", p.Name, err)
		}
	}
	if len(Apps()) != 7 {
		t.Fatalf("apps = %d", len(Apps()))
	}
	if len(Verizon3GUsers()) != 6 || len(VerizonLTEUsers()) != 3 {
		t.Fatal("user cohort sizes wrong")
	}
	if Threshold(VerizonLTE()) <= 0 {
		t.Fatal("threshold not positive")
	}
}

func TestFacadeBaselines(t *testing.T) {
	tr := GenerateApp(IM(), 2, 30*time.Minute)
	for _, d := range []DemotePolicy{
		NewFourPointFive(), NewPercentileIAT(tr, 0.95), NewOracle(TMobile3G()),
	} {
		if _, err := Simulate(tr, TMobile3G(), d, nil, nil); err != nil {
			t.Fatalf("%s: %v", d.Name(), err)
		}
	}
	fd := NewFixedDelay(tr, TMobile3G(), time.Second)
	if fd.Bound <= 0 {
		t.Fatal("fixed delay bound not positive")
	}
	if Delays([]time.Duration{time.Second}).Count != 1 {
		t.Fatal("Delays facade broken")
	}
}
