module optsync/bench

go 1.22

require optsync v0.0.0

replace optsync => ../
