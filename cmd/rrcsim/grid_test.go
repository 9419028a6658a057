package main

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"repro/internal/fleet"
)

// TestGridModeDigests pins the sha256 of the fleet-mode tables (the
// header carries the wall time and is not hashed) at one and at three
// workers: a grid of two -cohort specs × two -profile values under every
// paper scheme, the flat -users population swept over two profiles (its
// "users=N" cohort label), and the flat -users population on one profile,
// which is the same one-cohort grid with one profile.
func TestGridModeDigests(t *testing.T) {
	cases := []struct {
		name              string
		profiles, cohorts []string
		users             int
		duration          time.Duration
		policy, active    string
		want              string
	}{
		{
			name:     "cohorts-x-profiles",
			profiles: []string{"verizon-3g", "verizon-lte(t1=5s)"},
			cohorts:  []string{"study-3g(users=3,duration=30m)", "mix(im=2,users=2,duration=30m)"},
			policy:   "all", active: "none",
			want: "7f62e5fe8c4254558fc3c71c97eba54e5ab6652d07e11228708b54309e550231",
		},
		{
			name:     "users-x-profiles",
			profiles: []string{"Verizon 3G", "verizon-lte"},
			users:    3, duration: time.Hour,
			policy: "makeidle", active: "learn",
			want: "9393b26ed03a8666ce6e3d241187cc82707e4c7167213eb4095f9c791c3526e5",
		},
		{
			name:     "users-single-profile",
			profiles: []string{"verizon-3g"},
			users:    3, duration: time.Hour,
			policy: "all", active: "none",
			want: "1e4bab3f303035cbdcb8dba8e5bf8cf5493849f1267345932ccdae0e6983e930",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, workers := range []int{1, 3} {
				_, table, err := runFleet(c.profiles, c.cohorts, c.users, 1, c.duration,
					c.policy, c.active, time.Second, fleet.Options{Workers: workers})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				sum := sha256.Sum256([]byte(table))
				if got := hex.EncodeToString(sum[:]); got != c.want {
					t.Errorf("workers=%d: table digest %s, want %s\n%s", workers, got, c.want, table)
				}
			}
		})
	}
}
