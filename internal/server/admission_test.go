package server

import (
	"testing"
	"time"
)

// TestAdmitRate pins the sampler step: a tick busy at both ends is a
// capacity sample and moves μ by admitAlpha of the error, in either
// direction; any other tick can only raise μ.
func TestAdmitRate(t *testing.T) {
	for _, tc := range []struct {
		name           string
		mu             float64
		prevBusy, busy bool
		sample, want   float64
	}{
		{"cold idle tick measures nothing", 0, false, false, 0, 0},
		{"first completion sets the rate", 0, false, false, 100, 100},
		{"idle tick never lowers", 300, false, false, 100, 300},
		{"idle tick raises", 300, false, false, 400, 400},
		{"tick that became busy is still a lower bound", 300, false, true, 100, 300},
		{"tick that stopped being busy is still a lower bound", 300, true, false, 100, 300},
		{"busy tick moves down by alpha of the error", 300, true, true, 200, 300 - admitAlpha*100},
		{"busy tick moves up by alpha of the error", 300, true, true, 400, 300 + admitAlpha*100},
	} {
		if got := admitRate(tc.mu, tc.prevBusy, tc.sample, tc.busy); got != tc.want {
			t.Errorf("%s: admitRate(%v, %v, %v, %v) = %v, want %v",
				tc.name, tc.mu, tc.prevBusy, tc.sample, tc.busy, got, tc.want)
		}
	}
}

// TestAdmitLimit pins the clamp: unlimited until a completion has been
// measured, μ·SLO/admitSafety in between, never below one batch nor
// above QueueCap — whose 8×P default Start resolves, since the shard
// pumps themselves run uncapped.
func TestAdmitLimit(t *testing.T) {
	const workers = 2
	s, err := Start(Config{Workers: workers})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defaultCap := s.cfg.QueueCap
	s.Shutdown()
	if defaultCap != 8*workers {
		t.Fatalf("default QueueCap = %d, want %d", defaultCap, 8*workers)
	}
	for _, tc := range []struct {
		name     string
		mu       float64
		slo      time.Duration
		queueCap int
		want     int64
	}{
		{"cold start is unlimited", 0, time.Second, 128, 0},
		{"half the SLO at the measured rate", 100, time.Second, 128, 50},
		{"floor at one batch", 100, 2 * time.Millisecond, 128, workers},
		{"ceiling at the queue", 1e6, time.Second, 128, 128},
		{"ceiling at the default queue", 1e6, time.Second, defaultCap, int64(defaultCap)},
	} {
		if got := admitLimit(tc.mu, tc.slo, workers, tc.queueCap); got != tc.want {
			t.Errorf("%s: admitLimit(%v, %v, %d, %d) = %d, want %d",
				tc.name, tc.mu, tc.slo, workers, tc.queueCap, got, tc.want)
		}
	}
}
