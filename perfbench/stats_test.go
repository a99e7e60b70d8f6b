package main

import "testing"

func TestQuantileNearestRank(t *testing.T) {
	samples := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, tc := range []struct {
		q    float64
		want float64
	}{
		{0.01, 1}, {0.1, 1}, {0.11, 2}, {0.5, 5}, {0.51, 6}, {0.9, 9}, {0.99, 10}, {1, 10},
	} {
		if got := quantile(append([]float64(nil), samples...), tc.q); got != tc.want {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %v, want 0", got)
	}
}

func TestSupportedTailLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := supportedTail(tc.n); got != tc.want {
			t.Errorf("supportedTail(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestSummarizeReportsSampleCount(t *testing.T) {
	var s []float64
	for i := 1; i <= 1000; i++ {
		s = append(s, float64(i))
	}
	got := summarize(s)
	if got.N != 1000 || got.P50 != 500 || got.P99 != 990 || got.Tail != 99 || got.TailValue != 990 {
		t.Errorf("summarize = %+v", got)
	}
}
