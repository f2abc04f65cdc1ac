// Package lib holds one case for each rule of the dead-declaration scan.
package lib

// Used's Shared method is called, and so is its field read.
type Used struct {
	read   int
	unread int // flagged: nothing reads or writes it
}

// Shared is called by app.
func (u *Used) Shared() int { return u.read }

// Loner's Shared is never called: it only shares its name with Used's, so
// a scan that matches names lets it pass. Flagged.
type Loner struct{}

func (Loner) Shared() int { return 0 }

// base's method is called only through Outer, which embeds base.
type base struct{}

func (base) Promoted() int { return 1 }

// Outer promotes base's method.
type Outer struct{ base }

// Speaker's method is called.
type Speaker interface{ Speak() string }

// voice's Speak is reached only through Dog, which embeds voice, as a
// Speaker.
type voice struct{}

func (voice) Speak() string { return "woof" }

// Dog is a Speaker by its embedded voice.
type Dog struct{ voice }

// NewSpeaker returns a Dog as a Speaker.
func NewSpeaker() Speaker { return Dog{} }

// Idle's method no one calls. Flagged.
type Idle interface{ Unused() }

// Idler implements Idle, but nothing calls Unused through it. Flagged.
type Idler struct{}

func (Idler) Unused() {}
