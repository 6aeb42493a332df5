package memo

// CheckOptimalCost lets the external test package, which can import the
// suite templates, run the OptimalCost/Optimize differential.
var CheckOptimalCost = checkOptimalCost
