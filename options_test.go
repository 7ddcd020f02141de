package wanfd

import (
	"testing"
	"time"
)

func TestNormalizeSentinels(t *testing.T) {
	cases := []struct {
		name string
		in   options
		want options
	}{
		{
			name: "zero value gets paper defaults",
			in:   options{},
			want: options{predictor: "LAST", margin: "JAC_med", minTimeout: DefaultMinTimeout},
		},
		{
			name: "explicit choices survive",
			in:   options{predictor: "ARIMA", margin: "CI_low", minTimeout: 25 * time.Millisecond},
			want: options{predictor: "ARIMA", margin: "CI_low", minTimeout: 25 * time.Millisecond},
		},
		{
			name: "negative min timeout disables the floor",
			in:   options{minTimeout: -1},
			want: options{predictor: "LAST", margin: "JAC_med", minTimeout: 0},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := tc.in
			o.normalize()
			if o.predictor != tc.want.predictor || o.margin != tc.want.margin || o.minTimeout != tc.want.minTimeout {
				t.Errorf("normalize(%+v) = %+v, want %+v", tc.in, o, tc.want)
			}
		})
	}
}

func TestResolveOptions(t *testing.T) {
	o := resolveOptions(nil)
	if o.eta != time.Second {
		t.Errorf("default eta = %v, want 1s", o.eta)
	}
	if o.predictor != "LAST" || o.margin != "JAC_med" || o.minTimeout != DefaultMinTimeout {
		t.Errorf("resolveOptions(nil) not normalized: %+v", o)
	}

	o = resolveOptions([]Option{
		WithEta(100 * time.Millisecond),
		WithPredictor("WINMEAN"),
		WithMargin("JAC_high"),
		WithMinTimeout(-1),
		nil, // nil options are tolerated
		WithPeer("a", "127.0.0.1:1"),
		WithPeer("b", "127.0.0.1:2"),
	})
	if o.eta != 100*time.Millisecond || o.predictor != "WINMEAN" || o.margin != "JAC_high" {
		t.Errorf("explicit options lost: %+v", o)
	}
	if o.minTimeout != 0 {
		t.Errorf("negative min timeout should normalize to no floor, got %v", o.minTimeout)
	}
	if len(o.peers) != 2 || o.peers[0] != (peerSpec{"a", "127.0.0.1:1"}) || o.peers[1] != (peerSpec{"b", "127.0.0.1:2"}) {
		t.Errorf("peers = %+v", o.peers)
	}
}

func TestMultiMonitorRejectsMonitorOnlyOptions(t *testing.T) {
	addr := freeUDPPorts(t, 1)[0]
	for _, tc := range []struct {
		name string
		opt  Option
	}{
		{"WithAccrualThreshold", WithAccrualThreshold(8)},
		{"WithTargetDetection", WithTargetDetection(time.Second)},
		{"WithSyncClock", WithSyncClock()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mon, err := NewMultiMonitor(addr, tc.opt)
			if err == nil {
				mon.Close()
				t.Fatalf("NewMultiMonitor accepted %s", tc.name)
			}
		})
	}
}

func TestMultiMonitorRejectsBadCombo(t *testing.T) {
	addr := freeUDPPorts(t, 1)[0]
	if mon, err := NewMultiMonitor(addr, WithPredictor("NOPE")); err == nil {
		mon.Close()
		t.Error("unknown predictor accepted")
	}
	if mon, err := NewMultiMonitor(addr, WithMargin("NOPE")); err == nil {
		mon.Close()
		t.Error("unknown margin accepted")
	}
}

func TestNewMonitorRejectsWithPeer(t *testing.T) {
	addrs := freeUDPPorts(t, 2)
	mon, err := NewMonitor(addrs[0], addrs[1], WithPeer("x", "127.0.0.1:1"))
	if err == nil {
		mon.Close()
		t.Fatal("NewMonitor accepted WithPeer")
	}
}

// TestNewMonitorOptions smoke-tests the single-peer functional-options
// entry point end to end, including the peer label passed to WithOnChange.
func TestNewMonitorOptions(t *testing.T) {
	addrs := freeUDPPorts(t, 2)
	monAddr, hbAddr := addrs[0], addrs[1]
	const eta = 20 * time.Millisecond

	type change struct {
		peer      string
		suspected bool
	}
	changes := make(chan change, 16)
	mon, err := NewMonitor(monAddr, hbAddr,
		WithEta(eta),
		WithOnChange(func(peer string, suspected bool, _ time.Duration) {
			changes <- change{peer, suspected}
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	hb, err := RunHeartbeater(HeartbeaterConfig{Listen: hbAddr, Remote: monAddr, Eta: eta})
	if err != nil {
		t.Fatal(err)
	}
	if !waitFor(t, 3*time.Second, func() bool {
		return mon.DetectorStats().Heartbeats >= 5
	}) {
		t.Fatal("no heartbeats delivered")
	}
	_ = hb.Close()

	select {
	case c := <-changes:
		if c.peer != hbAddr || !c.suspected {
			t.Errorf("first change = %+v, want suspect of %s", c, hbAddr)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("silence never reported through WithOnChange")
	}
	if !mon.Suspected() {
		t.Error("monitor not suspected after silence")
	}
}

func TestWithPipeline(t *testing.T) {
	// The zero config is a no-op: every knob stays at its transport
	// default.
	o := resolveOptions([]Option{WithPipeline(PipelineConfig{})})
	if o.egressBatch != 0 || o.egressFlushInterval != 0 || o.readers != 0 || o.expectedPeers != 0 || o.pinDrivers {
		t.Errorf("zero PipelineConfig must change nothing: %+v", o)
	}
	o = resolveOptions([]Option{WithPipeline(PipelineConfig{
		EgressBatch:         128,
		EgressFlushInterval: 2 * time.Millisecond,
		Readers:             3,
	})})
	if o.egressBatch != 128 || o.egressFlushInterval != 2*time.Millisecond || o.readers != 3 {
		t.Errorf("pipeline knobs lost: %+v", o)
	}
	if o.expectedPeers != 0 || o.pinDrivers {
		t.Errorf("one knob leaked into the others: %+v", o)
	}
}
