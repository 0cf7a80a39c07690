module hetdsm/bench

go 1.22

require hetdsm v0.0.0

replace hetdsm => ../
