package outer

// Answer is a placeholder declaration.
const Answer = 42
