package main

import (
	"fmt"

	"fixture/lib"
)

func main() {
	var u lib.Used
	var o lib.Outer
	var i lib.Idle = lib.Idler{}
	fmt.Println(u.Shared(), o.Promoted(), lib.NewSpeaker().Speak(), i)
}
