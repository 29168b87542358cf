module fedrlnas/bench

go 1.22

require fedrlnas v0.0.0

replace fedrlnas => ../
