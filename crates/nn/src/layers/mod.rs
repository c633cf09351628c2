//! Concrete layer implementations.

mod batchnorm;
mod conv;
mod flatten;
mod linear;
mod pool;
mod relu;
mod residual;

pub use batchnorm::BatchNorm2d;
pub use conv::Conv2d;
pub use flatten::Flatten;
pub use linear::Linear;
pub use pool::{AvgPool2d, MaxPool2d};
pub use relu::ReLU;
pub use residual::Residual;
