// Package power models the radio power characteristics of a cellular
// network/device pair: per-state power draw, inactivity timer settings,
// state-switch costs and link rates.
//
// A Profile corresponds to one row of Table 2 in the paper (plus the
// transmission powers of Table 1 and the promotion delays of §2.1). The
// profiles shipped here carry the paper's measured values for the four US
// carriers; they are plain data, so downstream users can define their own.
//
// Units follow the paper's tables: power in milliwatts, time in seconds
// (expressed as time.Duration), energy in joules.
package power

import (
	"errors"
	"fmt"
	"time"
)

// Tech distinguishes the two RRC state-machine shapes in the paper (Fig. 2):
// three-state 3G (DCH / FACH / Idle) and two-state LTE (CONNECTED / IDLE).
type Tech uint8

const (
	// Tech3G is the 3GPP WCDMA-style machine with two inactivity timers.
	Tech3G Tech = iota
	// TechLTE is the LTE machine: one connected state, one timer
	// (equivalently, the 3G model with t2 = 0, per Fig. 5).
	TechLTE
)

// String returns "3G" or "LTE".
func (t Tech) String() string {
	switch t {
	case Tech3G:
		return "3G"
	case TechLTE:
		return "LTE"
	default:
		return fmt.Sprintf("Tech(%d)", uint8(t))
	}
}

// Profile describes one carrier/device combination.
//
// The zero value is not usable; construct profiles literally and check them
// with Validate, or use the predefined Table 2 profiles.
type Profile struct {
	// Name identifies the profile in reports (e.g. "Verizon 3G").
	Name string
	// Tech selects the RRC machine shape.
	Tech Tech

	// SendMW and RecvMW are the average radio power while transmitting and
	// receiving bulk data (Table 1), in milliwatts, with CPU/screen
	// subtracted.
	SendMW, RecvMW float64

	// T1MW is the power drawn in the Active tail state (Cell_DCH /
	// RRC_CONNECTED) while no data moves; T2MW likewise for the
	// high-power idle state (Cell_FACH). T2MW is ignored when T2 is zero.
	T1MW, T2MW float64

	// T1 and T2 are the inactivity timers maintained by the base station
	// (Fig. 2). T2 is zero for LTE profiles and for 3G networks where the
	// two stages cannot be distinguished (Table 2's Verizon 3G row).
	T1, T2 time.Duration

	// PromotionDelay is the measured Idle->Active switch latency (§2.1).
	// Packets that find the radio Idle are delayed by this much.
	PromotionDelay time.Duration

	// PromotionMW is the power drawn during promotion signaling. The
	// paper folds this into a fixed Eswitch; we model it explicitly so the
	// power timeline of Fig. 3 can be regenerated.
	PromotionMW float64

	// RadioOffJ is the measured energy to turn the data connection off:
	// the paper's proxy for the cost of a fast-dormancy demotion (§6.1).
	RadioOffJ float64

	// DormancyFraction scales RadioOffJ into the modelled fast-dormancy
	// demotion energy (the paper uses 0.5 and checks 0.1/0.2/0.4).
	DormancyFraction float64

	// UplinkMbps and DownlinkMbps are nominal link rates used only to
	// convert packet sizes into transmission time for the data-energy
	// term of the model (§6.1: energy within a burst is time x power).
	UplinkMbps, DownlinkMbps float64
}

// Validation errors.
var (
	ErrNoName        = errors.New("power: profile has no name")
	ErrBadPower      = errors.New("power: power values must be positive")
	ErrBadTimer      = errors.New("power: inactivity timers must be non-negative, T1 > 0")
	ErrBadTech       = errors.New("power: LTE profiles must have T2 == 0")
	ErrBadDormancy   = errors.New("power: DormancyFraction must be in (0, 1]")
	ErrBadLinkRate   = errors.New("power: link rates must be positive")
	ErrBadPromotion  = errors.New("power: promotion delay/power must be positive")
	ErrBadRadioOff   = errors.New("power: RadioOffJ must be positive")
	ErrT2PowerNeeded = errors.New("power: T2MW must be positive when T2 > 0")
)

// Validate checks profile consistency. Every public entry point that accepts
// a Profile calls this; it is exported so user-defined profiles can be
// checked eagerly.
func (p *Profile) Validate() error {
	switch {
	case p.Name == "":
		return ErrNoName
	case p.SendMW <= 0 || p.RecvMW <= 0 || p.T1MW <= 0:
		return fmt.Errorf("%w (profile %q)", ErrBadPower, p.Name)
	case p.T1 <= 0 || p.T2 < 0:
		return fmt.Errorf("%w (profile %q)", ErrBadTimer, p.Name)
	case p.Tech == TechLTE && p.T2 != 0:
		return fmt.Errorf("%w (profile %q)", ErrBadTech, p.Name)
	case p.T2 > 0 && p.T2MW <= 0:
		return fmt.Errorf("%w (profile %q)", ErrT2PowerNeeded, p.Name)
	case p.DormancyFraction <= 0 || p.DormancyFraction > 1:
		return fmt.Errorf("%w (profile %q)", ErrBadDormancy, p.Name)
	case p.UplinkMbps <= 0 || p.DownlinkMbps <= 0:
		return fmt.Errorf("%w (profile %q)", ErrBadLinkRate, p.Name)
	case p.PromotionDelay <= 0 || p.PromotionMW <= 0:
		return fmt.Errorf("%w (profile %q)", ErrBadPromotion, p.Name)
	case p.RadioOffJ <= 0:
		return fmt.Errorf("%w (profile %q)", ErrBadRadioOff, p.Name)
	}
	return nil
}

// Tail returns the total timer-controlled tail duration t1+t2.
func (p *Profile) Tail() time.Duration { return p.T1 + p.T2 }

// PromotionJ is the energy consumed by one Idle->Active promotion:
// promotion power over the promotion delay.
func (p *Profile) PromotionJ() float64 {
	return p.PromotionMW / 1000 * p.PromotionDelay.Seconds()
}

// DormancyJ is the modelled energy of one fast-dormancy (Active->Idle)
// demotion: DormancyFraction of the measured radio-off energy.
func (p *Profile) DormancyJ() float64 {
	return p.DormancyFraction * p.RadioOffJ
}

// SwitchJ is the paper's Eswitch: the energy consumed by demoting the radio
// to Idle after a transmission and promoting it back for the next one.
func (p *Profile) SwitchJ() float64 {
	return float64(p.DormancyJ()) + float64(p.PromotionJ())
}

// TxTime returns the modelled transmission time for size bytes in the given
// direction at the profile's nominal link rate.
func (p *Profile) TxTime(size int, uplink bool) time.Duration {
	rate := p.DownlinkMbps
	if uplink {
		rate = p.UplinkMbps
	}
	secs := float64(size) * 8 / (rate * 1e6)
	return time.Duration(secs * float64(time.Second))
}

// TxPowerMW returns the active transmission power for a direction.
func (p *Profile) TxPowerMW(uplink bool) float64 {
	if uplink {
		return p.SendMW
	}
	return p.RecvMW
}

// clone returns a copy so callers can tweak predefined profiles without
// mutating package state.
func (p Profile) clone() Profile { return p }

// WithDormancyFraction returns a copy of the profile with the fast-dormancy
// cost fraction replaced. Used by the sensitivity experiment (§6.1 caveat).
func (p Profile) WithDormancyFraction(f float64) Profile {
	q := p.clone()
	q.DormancyFraction = f
	q.Name = fmt.Sprintf("%s (dormancy %g)", p.Name, f)
	return q
}
