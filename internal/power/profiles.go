package power

import "time"

// This file carries the paper's measured carrier parameters.
//
// Power and timer values are Table 2 verbatim; send/receive powers for the
// Verizon devices are Table 1 (the T-Mobile and AT&T send/recv values are
// also listed in Table 2). Promotion delays are the Boston-area measurements
// quoted in §2.1. Radio-off energy is not tabulated in the paper; we model
// it as roughly one second of Active-state power, which is the right order
// of magnitude for the radio-off sequence the paper measured, and expose it
// as plain data so it can be changed. The 0.5 dormancy fraction is the
// paper's §6.1 modelling assumption.

// TMobile3G is the T-Mobile 3G profile (Nexus S measurements).
var TMobile3G = Profile{
	Name:             "T-Mobile 3G",
	Tech:             Tech3G,
	SendMW:           1202,
	RecvMW:           737,
	T1MW:             445,
	T2MW:             343,
	T1:               3200 * time.Millisecond,
	T2:               16300 * time.Millisecond,
	PromotionDelay:   3600 * time.Millisecond,
	PromotionMW:      445,
	RadioOffJ:        0.45,
	DormancyFraction: 0.5,
	UplinkMbps:       1.0,
	DownlinkMbps:     4.0,
}

// ATTHSPAPlus is the AT&T HSPA+ profile (HTC Vivid measurements).
var ATTHSPAPlus = Profile{
	Name:             "AT&T HSPA+",
	Tech:             Tech3G,
	SendMW:           1539,
	RecvMW:           1212,
	T1MW:             916,
	T2MW:             659,
	T1:               6200 * time.Millisecond,
	T2:               10400 * time.Millisecond,
	PromotionDelay:   1400 * time.Millisecond,
	PromotionMW:      916,
	RadioOffJ:        0.92,
	DormancyFraction: 0.5,
	UplinkMbps:       1.5,
	DownlinkMbps:     6.0,
}

// Verizon3G is the Verizon 3G profile (Galaxy Nexus measurements). Table 2
// could not distinguish t1 from t2 on this network, so t2 = 0 and the whole
// tail runs at the single measured tail power.
var Verizon3G = Profile{
	Name:             "Verizon 3G",
	Tech:             Tech3G,
	SendMW:           2043,
	RecvMW:           1177,
	T1MW:             1130,
	T2MW:             1130,
	T1:               9800 * time.Millisecond,
	T2:               0,
	PromotionDelay:   1200 * time.Millisecond,
	PromotionMW:      1130,
	RadioOffJ:        1.13,
	DormancyFraction: 0.5,
	UplinkMbps:       0.8,
	DownlinkMbps:     2.0,
}

// VerizonLTE is the Verizon LTE profile (Galaxy Nexus measurements).
var VerizonLTE = Profile{
	Name:             "Verizon LTE",
	Tech:             TechLTE,
	SendMW:           2928,
	RecvMW:           1737,
	T1MW:             1325,
	T2MW:             0,
	T1:               10200 * time.Millisecond,
	T2:               0,
	PromotionDelay:   600 * time.Millisecond,
	PromotionMW:      1325,
	RadioOffJ:        1.33,
	DormancyFraction: 0.5,
	UplinkMbps:       8.0,
	DownlinkMbps:     20.0,
}
