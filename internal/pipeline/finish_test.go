package pipeline

import (
	"runtime"
	"testing"
	"time"

	"ctcp/internal/emu"
)

// TestFinishReleasesPipeline: the Stats a run returns must not keep its
// Pipeline reachable. Runner memos and ctcpd's retained jobs hold results
// for a process lifetime; if Finish handed out a pointer into the Pipeline,
// every held result would pin the caches, trace cache and predictor tables
// of the run that produced it. The Pipeline's finalizer has to run while
// its Stats is still in use.
func TestFinishReleasesPipeline(t *testing.T) {
	freed := make(chan struct{})
	s := func() *Stats {
		p := New(emu.New(loopProgram(200)), DefaultConfig())
		runtime.SetFinalizer(p, func(*Pipeline) { close(freed) })
		return p.Run()
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-freed:
			if s.Retired == 0 {
				t.Error("held stats lost their contents")
			}
			return
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("Pipeline still reachable through the Stats its run returned")
		}
	}
}
