"""DNN substrate: layer shapes, the paper's model zoo, quantization, and
plaintext reference inference."""

from .layers import ActivationLayer, ConvLayer, FCLayer, LinearLayer, required_plain_bits
from .models import (
    IMAGENET_MODELS,
    MNIST_MODELS,
    MODEL_BUILDERS,
    Network,
    alexnet,
    all_models,
    build_model,
    lenet5,
    lenet_300_100,
    resnet50,
    vgg16,
)
from .plaintext import (
    PlaintextRunner,
    conv2d,
    fully_connected,
    maxpool2d,
    meanpool2d,
    relu,
    rescale,
)
from .quantize import (
    DEFAULT_ACTIVATION_BITS,
    DEFAULT_WEIGHT_BITS,
    quantize,
    synthetic_conv_weights,
    synthetic_fc_weights,
)

__all__ = [
    "ActivationLayer",
    "ConvLayer",
    "FCLayer",
    "LinearLayer",
    "required_plain_bits",
    "IMAGENET_MODELS",
    "MNIST_MODELS",
    "MODEL_BUILDERS",
    "Network",
    "alexnet",
    "all_models",
    "build_model",
    "lenet5",
    "lenet_300_100",
    "resnet50",
    "vgg16",
    "PlaintextRunner",
    "conv2d",
    "fully_connected",
    "maxpool2d",
    "meanpool2d",
    "relu",
    "rescale",
    "quantize",
    "synthetic_conv_weights",
    "synthetic_fc_weights",
    "DEFAULT_ACTIVATION_BITS",
    "DEFAULT_WEIGHT_BITS",
]
