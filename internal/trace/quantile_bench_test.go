package trace_test

import (
	"testing"
	"time"

	"repro/internal/trace"
	"repro/internal/workload"
)

// BenchmarkQuantileGap prices the 95% IAT fit's quantile on tail-sweep's
// shape: fourteen generated study-3g user-days, the traffic a fitted
// timer reads once per (cohort, user). It reports ns per packet.
func BenchmarkQuantileGap(b *testing.B) {
	users := workload.Verizon3GUsers()
	days := make([]trace.Trace, 14)
	packets := 0
	for i := range days {
		days[i] = workload.DayUser(users[i%len(users)]).Generate(int64(101+i), 24*time.Hour)
		packets += len(days[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sum time.Duration
	for i := 0; i < b.N; i++ {
		for _, tr := range days {
			sum += tr.QuantileGap(0.95)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*packets), "ns/pkt")
	if sum < 0 {
		b.Fatal("negative quantile")
	}
}
