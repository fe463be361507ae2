package sub

// Name is a placeholder declaration.
const Name = "sub"
