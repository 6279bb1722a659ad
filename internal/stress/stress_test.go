package stress

import (
	"strings"
	"testing"
)

func TestPaperConfig(t *testing.T) {
	c := PaperConfig()
	if c.Cache != 8 || c.CPU != 8 || c.Timer != 8 || c.Yield != 8 {
		t.Errorf("paper config = %+v", c)
	}
	if got := c.String(); !strings.Contains(got, "-C 8 -c 8 -T 8 -y 8") {
		t.Errorf("String() = %q", got)
	}
}

func TestLoadMonotoneAndBounded(t *testing.T) {
	if l := (Config{}).Load(); l != 0 {
		t.Errorf("empty config load = %g, want 0", l)
	}
	prev := -1.0
	for n := 0; n <= 64; n += 8 {
		l := Config{Cache: n}.Load()
		if l < 0 || l >= 1 {
			t.Errorf("load(%d) = %g out of [0,1)", n, l)
		}
		if l <= prev && n > 0 {
			t.Errorf("load not increasing at %d", n)
		}
		prev = l
	}
	paper := PaperConfig().Load()
	if paper < 0.85 || paper > 0.95 {
		t.Errorf("paper load = %g, want ~0.91", paper)
	}
}
