package tally

import "testing"

// TestMisuseIsCaughtByName pins the two caller bugs a fold refuses: edges
// that do not ascend, and a window read between instants that are not
// edges. An empty or inverted window reads as nothing.
func TestMisuseIsCaughtByName(t *testing.T) {
	for name, f := range map[string]func(){
		"edges that tie":       func() { New([]float64{0, 1, 1}) },
		"edges out of order":   func() { New([]float64{2, 1}) },
		"a window off an edge": func() { New([]float64{0, 1, 2}).Window(0, 1.5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
	tg := New([]float64{0, 1})
	tg.Send(1, 0.5)
	tg.Lose()
	if w := tg.Window(1, 0); w != (Window{}) {
		t.Errorf("an inverted window reads %+v", w)
	}
	if w := tg.Window(0, 1); !w.Lost || w.LostAt != 0.5 || w.Sent != 1 || w.Reconnected {
		t.Errorf("the window reads %+v, want its one probe lost", w)
	}
}
