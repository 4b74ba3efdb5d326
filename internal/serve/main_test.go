package serve

import (
	"os"
	"testing"
	"time"

	"github.com/fusedmindlab/transfusion/internal/chaos"
)

// TestMain wraps the whole package in the goroutine-leak checker: no test —
// chaos schedules, abandoned leaders, drains under injection — may leave an
// evaluator goroutine behind. The grace window covers detached cache leaders
// still winding down under their (short, test-configured) request timeouts.
func TestMain(m *testing.M) {
	os.Exit(chaos.LeakCheckMain(m, 15*time.Second))
}
