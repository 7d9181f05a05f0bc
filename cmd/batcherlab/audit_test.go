package main

// The audit is a reader of obs.Conform, not a second implementation of
// the Theorem 5.4 envelope: what it prints must be the attached
// monitor's snapshot, and on a healthy runtime that snapshot must hold
// Lemma 2.

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"batcher/internal/ds/counter"
	"batcher/internal/obs"
)

func TestAuditReportsConformSnapshot(t *testing.T) {
	const n, p = 1000, 4
	row := auditOne("counter", counter.New(0), counter.OpIncrement, n, p, 7)
	c := row.conf
	t.Logf("snapshot: %+v", c)

	if c.MaxLandings < 1 || c.MaxLandings > 2 {
		t.Errorf("max landings = %d, want 1 or 2 (Lemma 2)", c.MaxLandings)
	}
	if c.Violations != 0 {
		t.Errorf("violations = %d, want 0", c.Violations)
	}
	// Headroom > 1 is not asserted: the pending stamp is read before the
	// publish, so a descheduled worker overshoots it with Lemma 2 intact
	// (1 of 20 plain runs on a 2-core host, 5 of 20 under -race).
	if c.Headroom <= 0 {
		t.Errorf("headroom = %v, want > 0: the monitor saw no delay", c.Headroom)
	} else if c.Headroom > 1 {
		t.Logf("headroom %v > 1 with %d landings: stale pending stamp", c.Headroom, c.MaxLandings)
	}
	if c.Batches < n/p || c.Batches > n {
		t.Errorf("monitor saw %d batches for %d ops at P=%d: the window dropped some", c.Batches, n, p)
	}

	var buf bytes.Buffer
	if !printAuditTable(&buf, []auditRow{row}) {
		t.Errorf("a snapshot holding Lemma 2 printed a FAIL:\n%s", buf.String())
	}
	// span, gap, delay, bound, headroom, landings, violations: the printed
	// columns are the snapshot's fields, formatted and nothing else.
	want := fmt.Sprintf("%10s %10s %10s %10s %8.3f %5d %4d",
		fmtNS(c.DelayMaxNS), fmtNS(c.SpanMaxNS), fmtNS(c.GapMaxNS),
		fmtNS(row.bound()), c.Headroom, c.MaxLandings, c.Violations)
	if !strings.Contains(buf.String(), want) {
		t.Errorf("table does not carry the monitor's snapshot %q:\n%s", want, buf.String())
	}
}

// TestAuditGatesOnLemma2: a delay past the envelope is reported (WARN)
// without failing the audit; a Lemma 2 violation fails it.
func TestAuditGatesOnLemma2(t *testing.T) {
	over := auditRow{name: "over", n: 10, conf: obs.ConformSnapshot{Batches: 10, Headroom: 3, MaxLandings: 1}}
	var buf bytes.Buffer
	if !printAuditTable(&buf, []auditRow{over}) || !strings.Contains(buf.String(), "WARN  over: Theorem 5.4") {
		t.Errorf("headroom 3 with 1 landing: want ok and a WARN line, got:\n%s", buf.String())
	}
	broken := auditRow{name: "broken", n: 10, conf: obs.ConformSnapshot{Batches: 10, Headroom: 0.5, MaxLandings: 3, Violations: 1}}
	buf.Reset()
	if printAuditTable(&buf, []auditRow{broken}) || !strings.Contains(buf.String(), "FAIL  broken: Lemma 2") {
		t.Errorf("3 landings: want a failed audit and a FAIL line, got:\n%s", buf.String())
	}
}
